"""Ablation runs of QMA's design choices in the hidden-node scenario.

* :func:`run_exploration_ablation` — parameter-based exploration against
  ε-greedy and a constant rate (Sect. 4.2: ε-greedy cannot adapt once its
  rate has decayed, a constant rate keeps destroying a learned schedule);
* :func:`run_startup_ablation` — cautious startup on or off for a node
  that joins a converged network (Sect. 4.3).

The penalty ξ of Eq. 5 needs no runner of its own: it is a
:class:`~repro.core.config.QmaConfig` field of ``run_hidden_node``.
"""

from __future__ import annotations

from repro.core.config import QmaConfig
from repro.core.exploration import ConstantEpsilon, EpsilonGreedy, ParameterBasedExploration
from repro.experiments.base import make_mac_factory
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.topology.hidden_node import NODE_A, NODE_C, hidden_node_topology
from repro.traffic.generators import PoissonTraffic

#: Exploration strategies compared by :func:`run_exploration_ablation`.
EXPLORATION_STRATEGIES = {
    "parameter-based": ParameterBasedExploration,
    "epsilon-greedy": lambda: EpsilonGreedy(epsilon_start=0.3, decay=0.995),
    "constant": lambda: ConstantEpsilon(0.05),
}


def run_exploration_ablation(
    strategy: str, seed: int, rate: float, packets_per_node: int, warmup: float
) -> float:
    """PDR of the hidden-node scenario with QMA exploring by ``strategy``."""
    sim = Simulator(seed=seed)
    factory = make_mac_factory("qma", exploration=EXPLORATION_STRATEGIES[strategy])
    network = Network(sim, hidden_node_topology(), factory)
    for node_id in (NODE_A, NODE_C):
        node = network.node(node_id)
        node.attach_traffic(
            PoissonTraffic(
                sim, node.generate_packet, rate=rate,
                start_time=warmup, max_packets=packets_per_node,
                rng_name=f"ablation-{node_id}",
            )
        )
    network.start()
    sim.run_until(warmup + packets_per_node / rate + 5.0)
    return network.packet_delivery_ratio()


def run_startup_ablation(
    startup_subslots: int, seed: int, rate: float, join_time: float, duration: float
) -> float:
    """Node A's PDR after node C joins at ``join_time`` (lower: the join
    destroyed more of A's established schedule)."""
    sim = Simulator(seed=seed)
    config = QmaConfig(cautious_startup_subslots=startup_subslots)
    network = Network(sim, hidden_node_topology(), make_mac_factory("qma", qma_config=config))

    node_a = network.node(NODE_A)
    traffic_a = PoissonTraffic(sim, node_a.generate_packet, rate=rate, rng_name="a")
    node_a.attach_traffic(traffic_a)

    node_c = network.node(NODE_C)
    traffic_c = PoissonTraffic(
        sim, node_c.generate_packet, rate=rate, start_time=join_time, rng_name="c"
    )

    network.start()
    sim.schedule_at(join_time, traffic_c.start)
    sim.run_until(duration)

    delivered_late = sum(
        1 for record in network.sink.deliveries
        if record.origin == NODE_A and record.created_at >= join_time
    )
    generated_late = traffic_a.generated - int(join_time * rate)
    if generated_late <= 0:
        return 0.0
    return min(1.0, delivered_late / generated_late)
