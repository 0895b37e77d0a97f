"""Tests for mesh / concentrated-mesh topologies.

Beyond the fixed-shape unit tests, three hypothesis properties state the
routing algebra the kernels and the look-ahead power-gating scheme lean
on, for meshes and cmeshes of random size:

* **wiring duality** — ``opposite`` names the true reverse link
  (following a port and its opposite returns home), so every input
  buffer has exactly one feeder,
* **route progress** — iterating ``route_port``/``neighbor`` from any
  source reaches any destination and ejects there, and every hop
  strictly decreases ``hop_distance`` (minimality and livelock-freedom
  in one law),
* **look-ahead consistency** — ``next_router`` equals the neighbor
  through the routed port (the secure-hold refcount of Section III.B is
  only sound if the look-ahead names the router the packet will
  actually cross).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TopologyError
from repro.noc.topology import (
    EAST,
    LOCAL,
    NORTH,
    NUM_PORTS,
    OPPOSITE,
    PORT_NAMES,
    SOUTH,
    WEST,
    GridTopology,
    make_topology,
)


@pytest.fixture
def mesh8():
    return GridTopology(radix=8, concentration=1)


@pytest.fixture
def cmesh4():
    return GridTopology(radix=4, concentration=4)


class TestPorts:
    def test_five_ports(self):
        assert NUM_PORTS == 5
        assert len(PORT_NAMES) == 5

    def test_opposites(self):
        assert OPPOSITE[LOCAL] == LOCAL
        assert OPPOSITE[NORTH] == SOUTH
        assert OPPOSITE[EAST] == WEST
        assert OPPOSITE[SOUTH] == NORTH
        assert OPPOSITE[WEST] == EAST


class TestRouterGrid:
    def test_paper_mesh_size(self, mesh8):
        assert mesh8.num_routers == 64
        assert mesh8.num_cores == 64

    def test_paper_cmesh_size(self, cmesh4):
        assert cmesh4.num_routers == 16
        assert cmesh4.num_cores == 64

    def test_coords_row_major(self, mesh8):
        assert mesh8.coords(0) == (0, 0)
        assert mesh8.coords(7) == (7, 0)
        assert mesh8.coords(8) == (0, 1)
        assert mesh8.coords(63) == (7, 7)

    def test_router_at_inverse_of_coords(self, mesh8):
        for r in range(64):
            assert mesh8.router_at(*mesh8.coords(r)) == r

    def test_router_at_out_of_range(self, mesh8):
        with pytest.raises(TopologyError):
            mesh8.router_at(8, 0)

    def test_interior_neighbors(self, mesh8):
        r = mesh8.router_at(3, 3)
        assert mesh8.neighbor(r, NORTH) == mesh8.router_at(3, 2)
        assert mesh8.neighbor(r, SOUTH) == mesh8.router_at(3, 4)
        assert mesh8.neighbor(r, EAST) == mesh8.router_at(4, 3)
        assert mesh8.neighbor(r, WEST) == mesh8.router_at(2, 3)

    def test_edge_neighbors_none(self, mesh8):
        assert mesh8.neighbor(0, NORTH) is None
        assert mesh8.neighbor(0, WEST) is None
        assert mesh8.neighbor(63, SOUTH) is None
        assert mesh8.neighbor(63, EAST) is None

    def test_local_has_no_neighbor(self, mesh8):
        assert mesh8.neighbor(10, LOCAL) is None

    def test_unknown_port_rejected(self, mesh8):
        with pytest.raises(TopologyError):
            mesh8.neighbor(0, 9)

    def test_neighbors_counts(self, mesh8):
        assert len(mesh8.neighbors(0)) == 2            # corner
        assert len(mesh8.neighbors(1)) == 3            # edge
        assert len(mesh8.neighbors(mesh8.router_at(3, 3))) == 4  # interior

    def test_hop_distance(self, mesh8):
        assert mesh8.hop_distance(0, 63) == 14
        assert mesh8.hop_distance(5, 5) == 0

    def test_router_range_check(self, mesh8):
        with pytest.raises(TopologyError):
            mesh8.coords(64)


class TestCoreMapping:
    def test_mesh_identity_mapping(self, mesh8):
        for c in range(64):
            assert mesh8.router_of_core(c) == c

    def test_cmesh_four_cores_per_router(self, cmesh4):
        for r in range(16):
            cores = cmesh4.cores_of_router(r)
            assert len(cores) == 4
            for c in cores:
                assert cmesh4.router_of_core(c) == r

    def test_cmesh_blocks_are_adjacent(self, cmesh4):
        # Router (0,0) gets the 2x2 core block at the grid origin.
        assert sorted(cmesh4.cores_of_router(0)) == [0, 1, 8, 9]

    def test_cmesh_core_partition(self, cmesh4):
        all_cores = sorted(
            c for r in range(16) for c in cmesh4.cores_of_router(r)
        )
        assert all_cores == list(range(64))

    def test_core_out_of_range(self, mesh8):
        with pytest.raises(TopologyError):
            mesh8.router_of_core(64)


class TestValidation:
    def test_radix_too_small(self):
        with pytest.raises(TopologyError):
            GridTopology(radix=1)

    def test_non_square_concentration(self):
        with pytest.raises(TopologyError):
            GridTopology(radix=4, concentration=3)

    def test_make_topology_mesh(self):
        t = make_topology("mesh", 8)
        assert t.concentration == 1

    def test_make_topology_mesh_rejects_concentration(self):
        with pytest.raises(TopologyError):
            make_topology("mesh", 8, concentration=4)

    def test_make_topology_cmesh(self):
        t = make_topology("cmesh", 4, 4)
        assert t.num_cores == 64

    def test_make_topology_unknown(self):
        with pytest.raises(TopologyError):
            make_topology("hypercube", 4)


# --------------------------------------------------------------------- #
# Routing algebra (module docstring), on random meshes and cmeshes
# --------------------------------------------------------------------- #


def _topologies():
    return st.builds(
        lambda name, radix: make_topology(
            name, radix, 4 if name == "cmesh" else 1
        ),
        name=st.sampled_from(["mesh", "cmesh"]),
        radix=st.integers(min_value=2, max_value=5),
    )


def _pair(topo, a_frac, b_frac):
    """Map two unit fractions onto a (src, dst) router pair."""
    n = topo.num_routers
    return min(int(a_frac * n), n - 1), min(int(b_frac * n), n - 1)


_FRACTION = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@settings(max_examples=80, deadline=None)
@given(topo=_topologies())
def test_wiring_duality(topo):
    """Leaving router ``r`` through output ``p`` and then leaving the
    neighbor through ``opposite[p]`` returns to ``r``, and no input
    buffer is fed by two outputs."""
    feeders: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for rid in range(topo.num_routers):
        for port, nbr in topo.neighbors(rid):
            assert port != LOCAL
            assert topo.neighbor(rid, port) == nbr
            pin = topo.opposite[port]
            feeders.setdefault((nbr, pin), []).append((rid, port))
            assert topo.neighbor(nbr, pin) == rid, (
                f"port {port} of router {rid} is not a reverse link"
            )
    for (nbr, pin), srcs in feeders.items():
        assert len(srcs) == 1, (
            f"input ({nbr}, {pin}) fed by multiple outputs: {srcs}"
        )


@settings(max_examples=80, deadline=None)
@given(topo=_topologies(), a=_FRACTION, b=_FRACTION)
def test_reachability_and_route_progress(topo, a, b):
    """Following the route reaches dst; hop_distance falls every hop."""
    src, dst = _pair(topo, a, b)
    rid = src
    remaining = topo.hop_distance(src, dst)
    for _ in range(topo.num_routers + 1):
        port = topo.route_port(rid, dst)
        if rid == dst:
            assert port == LOCAL, "route must eject at the destination"
            assert remaining == 0
            return
        assert port != LOCAL, "route may only eject at the destination"
        rid = topo.neighbor(rid, port)
        now = topo.hop_distance(rid, dst)
        assert now == remaining - 1, (
            f"hop {src}->{dst} via {rid}: distance {remaining} -> {now}, "
            "not strictly minimal"
        )
        remaining = now
    raise AssertionError(f"route {src}->{dst} did not terminate")


@settings(max_examples=80, deadline=None)
@given(topo=_topologies(), a=_FRACTION, b=_FRACTION)
def test_lookahead_consistency(topo, a, b):
    """next_router == neighbor(rid, route_port) — None iff ejecting."""
    rid, dst = _pair(topo, a, b)
    port = topo.route_port(rid, dst)
    nxt = topo.next_router(rid, dst)
    if rid == dst:
        assert port == LOCAL and nxt is None
    else:
        assert nxt == topo.neighbor(rid, port)
        assert nxt is not None and nxt != rid
