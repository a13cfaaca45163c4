"""Network-level DSME orchestration and secondary-traffic statistics.

A :class:`DsmeNetwork` builds a :class:`~repro.net.network.Network` whose
contention MACs are confined to the CAP of every superframe, attaches one
:class:`~repro.dsme.node.DsmeNode` per node, drives the CFP service and the
multi-superframe book-keeping, and aggregates the secondary-traffic metrics
of Fig. 21 / Fig. 22.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

from repro.core.config import QmaConfig
from repro.dsme.node import DsmeNode
from repro.dsme.superframe import SuperframeConfig
from repro.mac.csma import CsmaConfig
from repro.mac.registry import MAC_REGISTRY, get_mac_spec
from repro.net.network import Network
from repro.net.routing import RouteDiscoveryBeacon
from repro.phy.frames import Frame
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.base import MacProtocol
    from repro.phy.radio import Radio
    from repro.sim.engine import Simulator

#: CAP channel-access schemes evaluated by the paper's scalability study.
#: Any MAC registered in :mod:`repro.mac.registry` is accepted beyond these.
CAP_MAC_KINDS = ("qma", "slotted-csma", "unslotted-csma")


@dataclass
class SecondaryTrafficStats:
    """Aggregate secondary-traffic metrics over all nodes."""

    requests_sent: int = 0
    requests_delivered: int = 0
    responses_sent: int = 0
    responses_received: int = 0
    notifies_sent: int = 0
    notifies_received: int = 0
    handshakes_started: int = 0
    handshakes_completed: int = 0
    handshakes_failed: int = 0
    allocations: int = 0
    deallocations: int = 0

    @property
    def messages_sent(self) -> int:
        return self.requests_sent + self.responses_sent + self.notifies_sent

    @property
    def messages_delivered(self) -> int:
        return self.requests_delivered + self.responses_received + self.notifies_received

    @property
    def pdr(self) -> float:
        """PDR of the secondary (CAP) traffic — the Fig. 21 metric."""
        if self.messages_sent == 0:
            return 0.0
        return self.messages_delivered / self.messages_sent

    @property
    def gts_request_success_ratio(self) -> float:
        """Fraction of GTS-requests that reached the responder — the Fig. 22 metric."""
        if self.requests_sent == 0:
            return 0.0
        return self.requests_delivered / self.requests_sent

    def allocation_rate(self, duration: float) -> float:
        """GTS (de)allocations per second over the given observation duration."""
        if duration <= 0:
            return 0.0
        return (self.allocations + self.deallocations) / duration

    def as_scalars(self) -> Dict[str, float]:
        """The raw counters as a flat name -> value mapping (report tables)."""
        return {
            "requests_sent": float(self.requests_sent),
            "requests_delivered": float(self.requests_delivered),
            "responses_sent": float(self.responses_sent),
            "responses_received": float(self.responses_received),
            "notifies_sent": float(self.notifies_sent),
            "notifies_received": float(self.notifies_received),
            "handshakes_started": float(self.handshakes_started),
            "handshakes_completed": float(self.handshakes_completed),
            "handshakes_failed": float(self.handshakes_failed),
            "allocations": float(self.allocations),
            "deallocations": float(self.deallocations),
        }


class DsmeNetwork:
    """A complete DSME network with a pluggable CAP channel-access scheme."""

    def __init__(
        self,
        sim: "Simulator",
        topology: Topology,
        cap_mac: str = "qma",
        config: Optional[SuperframeConfig] = None,
        qma_config: Optional[QmaConfig] = None,
        csma_config: Optional[CsmaConfig] = None,
        cap_mac_config: Optional[object] = None,
        route_discovery_period: Optional[float] = 2.0,
        link_error_rate: float = 0.0,
        interference: str = "collision",
        sinr_threshold_db: float = 10.0,
        propagation_model: Optional[object] = None,
    ) -> None:
        if cap_mac not in MAC_REGISTRY:
            raise ValueError(
                f"cap_mac must be a registered MAC kind, got {cap_mac!r}; "
                f"registered: {tuple(sorted(MAC_REGISTRY.names()))}"
            )
        self.sim = sim
        self.topology = topology
        self.config = config if config is not None else SuperframeConfig()
        self.cap_mac = cap_mac
        self._gate = self.config.cap_gate()
        self._qma_config = qma_config if qma_config is not None else QmaConfig(
            num_subslots=self.config.cap_subslots,
            subslot_duration=self.config.subslot_duration,
        )
        self._csma_config = csma_config if csma_config is not None else CsmaConfig()
        self._cap_mac_config = cap_mac_config

        self.network = Network(
            sim,
            topology,
            self._build_mac,
            link_error_rate=link_error_rate,
            interference=interference,
            sinr_threshold_db=sinr_threshold_db,
            propagation_model=propagation_model,
        )
        self.dsme_nodes: Dict[int, DsmeNode] = {}
        for node_id, node in self.network.nodes.items():
            dsme_node = DsmeNode(sim, node, self.config)
            dsme_node.cfp_delivery = self._deliver_over_gts
            self.dsme_nodes[node_id] = dsme_node

        self.beacons: Dict[int, RouteDiscoveryBeacon] = {}
        if route_discovery_period is not None:
            for node_id, node in self.network.nodes.items():
                self.beacons[node_id] = RouteDiscoveryBeacon(
                    sim, node, period=route_discovery_period
                )

        self._superframe_index = 0
        self._started_at = 0.0

    # ---------------------------------------------------------------- factory
    def _build_mac(self, sim: "Simulator", radio: "Radio") -> "MacProtocol":
        spec = get_mac_spec(self.cap_mac)
        config = self._cap_mac_config
        if config is None:
            # Route the legacy per-family configs by the spec's config class
            # (qma_config/csma_config keep working for the paper's CAP MACs).
            if spec.config_cls is QmaConfig:
                config = self._qma_config
            elif spec.config_cls is CsmaConfig:
                config = self._csma_config
        return spec.build(sim, radio, config=config, gate=self._gate)

    # ---------------------------------------------------------------- control
    def start(self) -> None:
        """Start MACs, routing beacons and the superframe schedule."""
        self._started_at = self.sim.now
        self.network.start()
        for beacon in self.beacons.values():
            beacon.start()
        first_cfp = self.config.cfp_start(0)
        self.sim.schedule_at(self.sim.now + first_cfp, self._on_cfp)

    def _on_cfp(self) -> None:
        superframe_in_msf = self._superframe_index % self.config.superframes_per_multisuperframe
        for dsme_node in self.dsme_nodes.values():
            dsme_node.on_cfp(superframe_in_msf)
        if superframe_in_msf == self.config.superframes_per_multisuperframe - 1:
            for dsme_node in self.dsme_nodes.values():
                dsme_node.on_multisuperframe_end()
        self._superframe_index += 1
        self.sim.schedule(self.config.superframe_duration, self._on_cfp)

    def _deliver_over_gts(self, peer_id: int, frame: Frame) -> None:
        self.dsme_nodes[peer_id].receive_cfp_data(frame)

    # ---------------------------------------------------------------- access
    def dsme_node(self, node_id: int) -> DsmeNode:
        return self.dsme_nodes[node_id]

    def sources(self) -> Dict[int, DsmeNode]:
        return {
            node_id: node
            for node_id, node in self.dsme_nodes.items()
            if not node.node.is_sink
        }

    # ---------------------------------------------------------------- metrics
    def secondary_traffic_stats(self) -> SecondaryTrafficStats:
        total = SecondaryTrafficStats()
        for dsme_node in self.dsme_nodes.values():
            stats = dsme_node.stats
            total.requests_sent += stats.requests_sent
            total.requests_delivered += stats.requests_delivered
            total.responses_sent += stats.responses_sent
            total.responses_received += stats.responses_received
            total.notifies_sent += stats.notifies_sent
            total.notifies_received += stats.notifies_received
            total.handshakes_started += stats.handshakes_started
            total.handshakes_completed += stats.handshakes_completed
            total.handshakes_failed += stats.handshakes_failed
            total.allocations += stats.allocations
            total.deallocations += stats.deallocations
        return total

    def primary_traffic_pdr(self) -> float:
        """PDR of the CFP data traffic (delivered at the sink / generated)."""
        generated = sum(
            node.node.packets_generated for node in self.dsme_nodes.values()
        )
        if generated == 0:
            return 0.0
        delivered = len(self.network.sink.deliveries)
        return delivered / generated

    def elapsed(self) -> float:
        return self.sim.now - self._started_at
