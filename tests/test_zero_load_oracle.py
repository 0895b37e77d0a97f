"""Closed-form zero-load latency oracle for the mesh and the cmesh.

A single packet crossing an otherwise idle network under ``baseline``
(every router always on at mode 7) meets no contention, so its latency
follows from the route length and the packet length alone:

* every router clocks at 2.25 GHz, ``PERIOD`` = 8 base ticks of 1/18 ns,
  and all routers fire on the same grid from tick 0;
* the packet is admitted into the source's LOCAL buffer at tick 0, after
  that cycle's transport step, so it first competes for an output one
  cycle later;
* virtual cut-through: each of the ``hops`` links and the ejection port
  serialise the whole packet (``length`` cycles each) before it moves on,
  giving ``PERIOD * (1 + length * (hops + 1))``;
* wormhole: the head advances one cycle per hop and the tail streams
  ``length`` cycles behind it, giving ``PERIOD * (hops + length + 1)``
  (``tests/test_wormhole.py`` checks the same formula on a mesh).

``hops`` comes from the topology's ``hop_distance`` (Manhattan distance
between the two routers), never from either simulation kernel, and both
kernels must hit the formula exactly.
"""

from __future__ import annotations

import pytest

from repro.common.config import SimConfig
from repro.core.controller import make_policy
from repro.noc.simulator import run_simulation
from repro.noc.topology import make_topology
from repro.traffic.trace import KIND_REQUEST, KIND_RESPONSE, Trace

#: Base ticks per ns, and base ticks per cycle at the top mode (2.25 GHz).
TICKS_PER_NS = 18
PERIOD = 8

REQUEST_FLITS = 1
RESPONSE_FLITS = 5

#: (radix, concentration) per topology: 16 cores each.  cmesh puts four
#: cores on each router, so some pairs share a router (zero hops).
SHAPES = {
    "mesh": (4, 1),
    "cmesh": (2, 4),
}


def zero_load_ticks(hops: int, length: int, switching: str) -> int:
    """End-to-end base ticks of a lone packet (module docstring)."""
    if switching == "wormhole":
        return PERIOD * (hops + length + 1)
    return PERIOD * (1 + length * (hops + 1))


def _pairs(num_cores: int) -> list[tuple[int, int]]:
    """Every destination from a corner core and from a middle core."""
    return [
        (src, dst)
        for src in (0, num_cores // 2 + 1)
        for dst in range(num_cores)
        if dst != src
    ]


def test_every_fabric_is_covered():
    """The oracle covers both networks the paper evaluates."""
    assert set(SHAPES) == {
        SimConfig.paper_mesh().topology, SimConfig.paper_cmesh().topology
    }


@pytest.mark.parametrize("backend", ["object", "array"])
@pytest.mark.parametrize("switching", ["vct", "wormhole"])
@pytest.mark.parametrize("topology", sorted(SHAPES))
def test_single_packet_latency_matches_closed_form(
    topology, switching, backend
):
    radix, concentration = SHAPES[topology]
    topo = make_topology(topology, radix, concentration)
    config = SimConfig(
        topology=topology,
        radix=radix,
        concentration=concentration,
        buffer_depth=2 * RESPONSE_FLITS,
        request_flits=REQUEST_FLITS,
        response_flits=RESPONSE_FLITS,
        switching=switching,
        backend=backend,
    )
    wrong = []
    for src, dst in _pairs(topo.num_cores):
        hops = topo.hop_distance(
            topo.router_of_core(src), topo.router_of_core(dst)
        )
        for kind, length in ((KIND_REQUEST, REQUEST_FLITS),
                             (KIND_RESPONSE, RESPONSE_FLITS)):
            trace = Trace.from_entries(
                [(src, dst, kind, 0.0)], topo.num_cores, "zero-load"
            )
            result = run_simulation(config, trace, make_policy("baseline"))
            assert result.drained
            assert result.stats.packets_delivered == 1
            want = zero_load_ticks(hops, length, switching) / TICKS_PER_NS
            got = result.stats.latencies_ns[0]
            if got != want:
                wrong.append((src, dst, hops, length, got, want))
    assert not wrong, (
        f"{topology}/{switching}/{backend}: (src, dst, hops, flits, "
        f"measured ns, closed-form ns) {wrong[:5]}"
    )
