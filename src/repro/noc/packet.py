"""Packets and flits.

The simulator is flit-accurate with virtual cut-through (VCT) switching: a
packet of ``length`` 128-bit flits is serialized over a link one flit per
*upstream* cycle, and the downstream input buffer reserves the full packet
at grant time.  Because all flits of a packet move contiguously, the kernel
tracks one :class:`Packet` object per packet with flit-level timing, rather
than allocating per-flit objects — same cycle behaviour, far cheaper.

Hop latency is therefore governed by the upstream router's clock, exactly
the property Section III.A relies on ("if the upstream router is slower,
then the hop latency is larger").
"""

from __future__ import annotations

from repro.traffic.trace import KIND_NAMES


class Packet:
    """One in-flight packet.

    Attributes
    ----------
    pid:
        Unique id (injection order).
    src_core / dst_core:
        Endpoint cores.
    kind:
        ``KIND_REQUEST`` or ``KIND_RESPONSE``.
    length:
        Payload length in flits.
    inject_ns:
        Time the packet entered the source router's local buffer.
    eject_ns:
        Time the tail flit reached the destination NI (set at ejection).
    hops:
        Router+link traversals completed so far.
    out_port:
        Route-computation result at the packet's *current* router; a packet
        resides in exactly one input buffer at a time under VCT, so one
        field suffices.
    """

    __slots__ = (
        "pid",
        "src_core",
        "dst_core",
        "kind",
        "length",
        "inject_ns",
        "eject_ns",
        "hops",
        "out_port",
        "tail_tick",
    )

    def __init__(
        self,
        pid: int,
        src_core: int,
        dst_core: int,
        kind: int,
        length: int,
        inject_ns: float,
    ) -> None:
        self.pid = pid
        self.src_core = src_core
        self.dst_core = dst_core
        self.kind = kind
        self.length = length
        self.inject_ns = inject_ns
        self.eject_ns = -1.0
        self.hops = 0
        self.out_port = -1
        # Wormhole mode: tick at which this packet's tail flit has fully
        # arrived at its current router (caps onward streaming).
        self.tail_tick = 0

    @property
    def latency_ns(self) -> float:
        """End-to-end latency; raises if the packet has not ejected yet."""
        if self.eject_ns < 0:
            raise ValueError(f"packet {self.pid} has not been ejected")
        return self.eject_ns - self.inject_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.pid}, {KIND_NAMES.get(self.kind, self.kind)}, "
            f"{self.src_core}->{self.dst_core}, {self.length}f)"
        )
