"""A network node: traffic source/forwarder/sink on top of a MAC protocol."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.phy.frames import Frame, FrameKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.base import MacProtocol
    from repro.sim.engine import Simulator
    from repro.traffic.generators import TrafficGenerator


@dataclass
class DeliveryRecord:
    """A data packet that reached its final destination."""

    origin: int
    created_at: float
    received_at: float
    hops: int

    @property
    def delay(self) -> float:
        """End-to-end delay: reception at the sink minus generation time."""
        return self.received_at - self.created_at


class Node:
    """A node of the simulated network.

    The node generates data packets (if a traffic generator is attached),
    forwards packets of its children towards the sink along the routing
    tree and, if it is the sink, records deliveries.

    Frames that are not plain data (GTS handshake messages, beacons, route
    discovery broadcasts) are dispatched to handlers registered with
    :meth:`register_handler`, which is how the DSME substrate hooks into the
    node without the node knowing about DSME.
    """

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        mac: "MacProtocol",
        parent: Optional[int] = None,
        sink_id: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.mac = mac
        self.parent = parent
        self.sink_id = sink_id if sink_id is not None else node_id
        self.traffic: Optional["TrafficGenerator"] = None
        self._handlers: Dict[FrameKind, Callable[[Frame], None]] = {}

        # Typed observation hooks (see repro.metrics): called as
        # hook(node, record) when a delivery is recorded here.
        # Observers only — they must not send frames or schedule events.
        self.delivery_hooks: List[Callable[["Node", "DeliveryRecord"], None]] = []

        # statistics
        self.packets_generated = 0
        self.packets_forwarded = 0
        self.packets_dropped_no_route = 0
        self.deliveries: List[DeliveryRecord] = []

        mac.receive_callback = self._on_receive

    # ------------------------------------------------------------------ roles
    @property
    def is_sink(self) -> bool:
        return self.node_id == self.sink_id

    def attach_traffic(self, traffic: "TrafficGenerator") -> None:
        """Attach a traffic generator whose callback is :meth:`generate_packet`."""
        self.traffic = traffic

    def register_handler(self, kind: FrameKind, handler: Callable[[Frame], None]) -> None:
        """Register a handler for a non-data frame kind (used by DSME)."""
        self._handlers[kind] = handler

    # ----------------------------------------------------------------- sending
    def generate_packet(self, payload_bytes: Optional[int] = None) -> Optional[Frame]:
        """Generate one data packet addressed to the sink; returns the frame (or None)."""
        if self.is_sink:
            return None
        if self.parent is None:
            self.packets_dropped_no_route += 1
            return None
        frame = Frame(
            kind=FrameKind.DATA,
            src=self.node_id,
            dst=self.parent,
            final_dst=self.sink_id,
            created_at=self.sim.now,
            payload_bytes=payload_bytes,
        )
        self.packets_generated += 1
        self.mac.send(frame)
        return frame

    def send_frame(self, frame: Frame) -> bool:
        """Hand an arbitrary frame (e.g. a GTS message) to the MAC."""
        return self.mac.send(frame)

    # ---------------------------------------------------------------- receiving
    def _on_receive(self, frame: Frame) -> None:
        handler = self._handlers.get(frame.kind)
        if handler is not None:
            handler(frame)
            return
        if frame.kind is not FrameKind.DATA:
            return
        if frame.final_dst == self.node_id or (self.is_sink and frame.final_dst == self.sink_id):
            record = DeliveryRecord(
                origin=frame.origin,
                created_at=frame.created_at,
                received_at=self.sim.now,
                hops=frame.hops + 1,
            )
            self.deliveries.append(record)
            if self.delivery_hooks:
                for hook in self.delivery_hooks:
                    hook(self, record)
            return
        # Forward towards the sink.
        if self.parent is None:
            self.packets_dropped_no_route += 1
            return
        self.packets_forwarded += 1
        self.mac.send(frame.next_hop_copy(self.node_id, self.parent))

    # ------------------------------------------------------------------ stats
    def delivered_from(self, origin: int) -> int:
        """Number of packets originating at ``origin`` delivered to this node."""
        return sum(1 for record in self.deliveries if record.origin == origin)

    def average_delivery_delay(self) -> float:
        """Mean end-to-end delay of all deliveries recorded at this node."""
        if not self.deliveries:
            return 0.0
        return sum(record.delay for record in self.deliveries) / len(self.deliveries)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        role = "sink" if self.is_sink else "source"
        return f"Node({self.node_id}, {role}, mac={self.mac.name})"
