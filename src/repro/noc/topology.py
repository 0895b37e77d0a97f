"""Mesh and concentrated-mesh topologies (Figure 1a/b).

Both topologies are 2-D grids of routers with five ports each: a LOCAL
port (to the attached core(s) / network interface) and four directional
ports.  The concentrated mesh attaches ``concentration`` cores per router
(the paper uses 4), halving the grid in each dimension for the same core
count.  Routing is XY dimension order (:meth:`GridTopology.route_port`),
which is deadlock-free by turn restriction alone: it forbids every Y->X
turn, so the channel dependency graph is acyclic (see
``docs/architecture.md``).

Routers are indexed row-major: router ``r`` sits at
``(x, y) = (r % radix, r // radix)``.  Cores live on their own square grid
of side ``radix * sqrt(concentration)`` and map onto the router grid in
``sqrt(concentration)``-sized blocks, matching Figure 1(a)'s layout of
four adjacent cores per cmesh router.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import TopologyError

#: Port indices shared by inputs and outputs.
LOCAL, NORTH, EAST, SOUTH, WEST = range(5)
NUM_PORTS = 5

PORT_NAMES = ("LOCAL", "NORTH", "EAST", "SOUTH", "WEST")

#: ``OPPOSITE[p]``: the input port on the neighbouring router that our
#: output port ``p`` feeds (links are bidirectional, so it is also the
#: port the neighbour reaches us through).  LOCAL maps to itself.
OPPOSITE = (LOCAL, SOUTH, WEST, NORTH, EAST)


@dataclass(frozen=True)
class GridTopology:
    """A radix x radix mesh with ``concentration`` cores per router."""

    radix: int
    concentration: int = 1

    num_ports = NUM_PORTS
    opposite = OPPOSITE

    def __post_init__(self) -> None:
        if self.radix < 2:
            raise TopologyError(f"radix must be >= 2, got {self.radix}")
        if self.concentration < 1:
            raise TopologyError(
                f"concentration must be >= 1, got {self.concentration}"
            )
        side = math.isqrt(self.concentration)
        if side * side != self.concentration:
            raise TopologyError(
                "concentration must be a perfect square so cores tile the "
                f"router grid, got {self.concentration}"
            )

    # ------------------------------------------------------------------ #
    # Router grid
    # ------------------------------------------------------------------ #

    @property
    def num_routers(self) -> int:
        """Router count (``radix ** 2``)."""
        return self.radix * self.radix

    def coords(self, router: int) -> tuple[int, int]:
        """Router grid coordinates ``(x, y)`` of ``router`` (row-major)."""
        self._check_router(router)
        return router % self.radix, router // self.radix

    def router_at(self, x: int, y: int) -> int:
        """Router id at grid coordinates ``(x, y)``."""
        if not (0 <= x < self.radix and 0 <= y < self.radix):
            raise TopologyError(f"({x}, {y}) outside a radix-{self.radix} grid")
        return y * self.radix + x

    def neighbor(self, router: int, port: int) -> int | None:
        """Router reached through ``port``, or ``None`` at a mesh edge.

        ``LOCAL`` has no neighbouring router and returns ``None``.
        """
        x, y = self.coords(router)
        if port == NORTH:
            return self.router_at(x, y - 1) if y > 0 else None
        if port == SOUTH:
            return self.router_at(x, y + 1) if y < self.radix - 1 else None
        if port == EAST:
            return self.router_at(x + 1, y) if x < self.radix - 1 else None
        if port == WEST:
            return self.router_at(x - 1, y) if x > 0 else None
        if port == LOCAL:
            return None
        raise TopologyError(f"unknown port {port}")

    def neighbors(self, router: int) -> list[tuple[int, int]]:
        """All ``(port, neighbor_router)`` pairs that exist for ``router``."""
        out = []
        for port in (NORTH, EAST, SOUTH, WEST):
            n = self.neighbor(router, port)
            if n is not None:
                out.append((port, n))
        return out

    def hop_distance(self, a: int, b: int) -> int:
        """Manhattan distance between two routers."""
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        return abs(ax - bx) + abs(ay - by)

    def route_port(self, rid: int, dst_rid: int) -> int:
        """XY DOR: correct X (east/west), then Y (south/north), then eject."""
        if rid == dst_rid:
            return LOCAL
        radix = self.radix
        x, y = rid % radix, rid // radix
        dx, dy = dst_rid % radix, dst_rid // radix
        if x < dx:
            return EAST
        if x > dx:
            return WEST
        if y < dy:
            return SOUTH
        return NORTH

    def next_router(self, rid: int, dst_rid: int) -> int | None:
        """Look-ahead: the downstream router, or ``None`` when ejecting."""
        port = self.route_port(rid, dst_rid)
        return None if port == LOCAL else self.neighbor(rid, port)

    # ------------------------------------------------------------------ #
    # Core grid
    # ------------------------------------------------------------------ #

    @property
    def num_cores(self) -> int:
        """Total attached cores."""
        return self.num_routers * self.concentration

    @property
    def core_side(self) -> int:
        """Side of the square core grid."""
        return self.radix * math.isqrt(self.concentration)

    def router_of_core(self, core: int) -> int:
        """Router to which ``core`` attaches."""
        if not 0 <= core < self.num_cores:
            raise TopologyError(
                f"core {core} out of range [0, {self.num_cores})"
            )
        block = math.isqrt(self.concentration)
        cx, cy = core % self.core_side, core // self.core_side
        return self.router_at(cx // block, cy // block)

    def cores_of_router(self, router: int) -> list[int]:
        """Cores attached to ``router``."""
        self._check_router(router)
        block = math.isqrt(self.concentration)
        rx, ry = self.coords(router)
        return [
            (ry * block + dy) * self.core_side + (rx * block + dx)
            for dy in range(block)
            for dx in range(block)
        ]

    def _check_router(self, router: int) -> None:
        if not 0 <= router < self.num_routers:
            raise TopologyError(
                f"router {router} out of range [0, {self.num_routers})"
            )


def make_topology(kind: str, radix: int, concentration: int = 1) -> GridTopology:
    """Build the paper's topologies by name (``"mesh"`` / ``"cmesh"``)."""
    if kind == "mesh":
        if concentration != 1:
            raise TopologyError("mesh has one core per router")
        return GridTopology(radix=radix, concentration=1)
    if kind == "cmesh":
        return GridTopology(radix=radix, concentration=concentration)
    raise TopologyError(f"unknown topology kind {kind!r}")
