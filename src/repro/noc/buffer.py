"""Input-port FIFO with virtual cut-through reservation.

Each router input port owns one :class:`InputBuffer`.  Space is measured in
flits.  A transfer is admitted in two steps:

1. the *upstream* router **reserves** the packet's full length at grant
   time (VCT admission control — guarantees the packet never stalls
   mid-link),
2. the packet **commits** into the FIFO when its tail flit arrives,
   converting the reservation into occupancy.

``occupancy + reserved <= capacity`` is an invariant enforced here and
exercised by the property-based tests.
"""

from __future__ import annotations

from collections import deque

from repro.common.errors import SimulationError
from repro.noc.packet import Packet


class InputBuffer:
    """A flit-granular FIFO for one input port."""

    __slots__ = ("capacity", "occupancy", "reserved", "queue")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("buffer capacity must be >= 1 flit")
        self.capacity = capacity
        self.occupancy = 0
        self.reserved = 0
        self.queue: deque[Packet] = deque()

    @property
    def free(self) -> int:
        """Flit slots available for new reservations."""
        return self.capacity - self.occupancy - self.reserved

    @property
    def is_empty(self) -> bool:
        """True when no packet is resident (reservations may be pending)."""
        return not self.queue

    def can_accept(self, length: int) -> bool:
        """Whether a packet of ``length`` flits can be reserved now."""
        return self.free >= length

    def reserve(self, length: int) -> None:
        """Hold ``length`` flit slots for an in-flight packet."""
        if length > self.free:
            raise SimulationError(
                f"over-reservation: {length} flits requested, {self.free} free"
            )
        self.reserved += length

    def commit(self, packet: Packet) -> None:
        """Convert a reservation into FIFO occupancy (tail arrived)."""
        if self.reserved < packet.length:
            raise SimulationError(
                f"commit without reservation for packet {packet.pid}"
            )
        self.reserved -= packet.length
        self.occupancy += packet.length
        self.queue.append(packet)

    def queued_flits(self) -> int:
        """Flits actually resident in the FIFO (audit ground truth).

        Recomputed from the queued packets rather than read from the
        ``occupancy`` counter, so an auditor can cross-check the two.
        """
        return sum(p.length for p in self.queue)

    def head(self) -> Packet | None:
        """The packet at the FIFO head, or ``None``."""
        return self.queue[0] if self.queue else None

    def pop(self) -> Packet:
        """Remove and return the head packet (its flits leave)."""
        if not self.queue:
            raise SimulationError("pop from empty input buffer")
        packet = self.queue.popleft()
        self.occupancy -= packet.length
        if self.occupancy < 0:
            raise SimulationError("buffer occupancy went negative")
        return packet

    def __len__(self) -> int:
        return len(self.queue)
