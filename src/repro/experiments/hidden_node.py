"""Hidden-node experiments (Sect. 6.1, Figs. 7-15 of the paper).

Three nodes (A — B — C) where A and C are hidden from each other both send
Poisson traffic with rate δ to the sink B.  Data generation starts after a
warm-up period during which only low-rate management traffic is exchanged,
as in the paper.

The runners are thin compositions: scenario assembly goes through
:class:`repro.scenario.ScenarioBuilder` and every metric is produced by a
collector resolved from :mod:`repro.metrics.registry`, returned as a typed
:class:`~repro.metrics.report.SimReport`.  ``collectors=`` accepts any
registered collector names (default: :data:`DEFAULT_COLLECTORS`); ``mac``
and ``propagation`` accept any name registered in
:mod:`repro.mac.registry` / :mod:`repro.phy.registry`.

:func:`run_poisson_scenario` is the run body of both hidden-node families:
:func:`run_hidden_node` and
:func:`repro.experiments.sinr_hidden_node.run_sinr_hidden_node` differ only
in the scenario, the sources and the collector defaults they hand it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.slots import SlotUtilisation
from repro.core.config import QmaConfig
from repro.experiments.base import scenario_config
from repro.metrics.base import CollectionContext
from repro.metrics.collectors import ConvergenceCollector, SlotUtilisationCollector
from repro.metrics.registry import build_collectors
from repro.metrics.report import SimReport
from repro.scenario.builder import ScenarioBuilder
from repro.scenario.config import ScenarioConfig
from repro.topology.hidden_node import NODE_A, NODE_C

#: The two traffic sources of the scenario (B is the sink).
SOURCES = (NODE_A, NODE_C)

#: Default collector composition of the hidden-node runners.
DEFAULT_COLLECTORS = ("pdr", "queue", "delay", "attempts", "convergence")

#: Per-collector constructor overrides for this experiment (registry
#: defaults already match the hidden-node metric conventions).
COLLECTOR_OVERRIDES: Dict[str, Dict[str, Any]] = {}


def run_poisson_scenario(
    experiment: str,
    scenario: ScenarioConfig,
    sources: Sequence[int],
    default_collectors: Sequence[str],
    collector_overrides: Mapping[str, Dict[str, Any]],
    collectors: Optional[Sequence[str]],
    delta: float,
    packets_per_node: int,
    warmup: float,
    management_period: float,
    drain_time: float,
    max_duration: Optional[float],
    report_params: Optional[Mapping[str, Any]] = None,
) -> SimReport:
    """The run body of the hidden-node families: build ``scenario``, let
    every source exchange management traffic during the warm-up and then
    send ``packets_per_node`` Poisson packets at rate ``delta``.

    ``collectors`` names registered metric collectors (None: the family's
    ``default_collectors``); ``report_params`` are reported between
    ``warmup`` and ``seed``.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if packets_per_node <= 0:
        raise ValueError("packets_per_node must be positive")

    built = ScenarioBuilder(scenario).build()
    sim, network = built.sim, built.network

    # Management traffic during the warm-up (association / beacon exchange).
    management = [
        built.attach_management(
            node_id,
            period=management_period,
            start_time=1.0,
            jitter=management_period * 0.2,
            rng_name=f"management-{node_id}",
        )
        for node_id in sources
    ]

    ctx = CollectionContext(
        sim=sim,
        network=network,
        sources=sources,
        warmup=warmup,
        management_generators=dict(zip(sources, management)),
    )
    active = build_collectors(
        default_collectors if collectors is None else collectors, collector_overrides
    )
    for collector in active:
        collector.attach(ctx)

    network.start()

    # Primary traffic starts after the warm-up.
    data_generators = []
    for node_id, mgmt in zip(sources, management):
        generator = built.poisson_source(
            node_id,
            rate=delta,
            start_time=warmup,
            max_packets=packets_per_node,
            rng_name=f"data-{node_id}",
            start_at=warmup,
        )
        data_generators.append(generator)
        sim.schedule_at(warmup, mgmt.stop)
    ctx.data_generators = dict(zip(sources, data_generators))

    expected_duration = warmup + packets_per_node / delta + drain_time
    end_time = min(expected_duration, max_duration) if max_duration else expected_duration
    sim.run_until(end_time)

    report = SimReport(
        experiment=experiment,
        mac=scenario.mac,
        topology=built.topology.name,
        params={
            "delta": delta,
            "packets_per_node": packets_per_node,
            "warmup": warmup,
            **(report_params or {}),
            "seed": scenario.seed,
        },
        duration=sim.now,
        trace_dropped=ctx.trace_dropped(),
    )
    for collector in active:
        collector.finalize(ctx, report)
    return report


def run_hidden_node(
    mac: str = "qma",
    delta: float = 10.0,
    packets_per_node: int = 1000,
    warmup: float = 100.0,
    management_period: float = 5.0,
    drain_time: float = 5.0,
    seed: int = 0,
    qma_config: Optional[QmaConfig] = None,
    max_duration: Optional[float] = None,
    link_distance: float = 50.0,
    propagation: Optional[str] = None,
    propagation_params: Optional[Mapping[str, Any]] = None,
    interference: str = "collision",
    sinr_threshold_db: float = 10.0,
    collectors: Optional[Sequence[str]] = None,
    trace: bool = False,
    trace_limit: Optional[int] = None,
) -> SimReport:
    """Run one hidden-node scenario and return its :class:`SimReport`.

    ``packets_per_node`` and ``warmup`` default to the paper values (1000
    packets, 100 s); the figure rows' reduced runs pass smaller values.
    ``collectors`` names registered metric collectors (default:
    :data:`DEFAULT_COLLECTORS`); ``interference="sinr"`` (with a propagation
    model) swaps in the SINR/capture channel.
    """
    scenario = scenario_config(
        "hidden-node",
        mac,
        seed,
        qma_config,
        topology_params={"link_distance": link_distance},
        propagation=propagation,
        propagation_params=dict(propagation_params or {}),
        interference=interference,
        sinr_threshold_db=sinr_threshold_db,
        trace=trace,
        trace_limit=trace_limit,
    )
    return run_poisson_scenario(
        "hidden-node", scenario, SOURCES, DEFAULT_COLLECTORS, COLLECTOR_OVERRIDES,
        collectors, delta, packets_per_node, warmup, management_period, drain_time,
        max_duration,
    )


def _paper_scenario(seed: int, qma_config: Optional[QmaConfig]) -> ScenarioConfig:
    """The QMA hidden-node scenario of Figs. 12-15 (explicit 50 m links)."""
    return scenario_config(
        "hidden-node", "qma", seed, qma_config, topology_params={"link_distance": 50.0}
    )


def run_convergence(
    delta: float = 10.0,
    duration: float = 450.0,
    warmup: float = 100.0,
    packets_per_node: int = 100_000,
    seed: int = 0,
    qma_config: Optional[QmaConfig] = None,
) -> SimReport:
    """Convergence run for Fig. 10 / Fig. 11: unlimited traffic for a fixed duration."""
    return run_hidden_node(
        mac="qma",
        delta=delta,
        packets_per_node=packets_per_node,
        warmup=warmup,
        seed=seed,
        qma_config=qma_config,
        max_duration=duration,
    )


def run_fluctuating(
    duration: float = 1500.0,
    high_rate: float = 100.0,
    low_rate: float = 10.0,
    phase_duration: float = 100.0,
    node_c_rate: float = 25.0,
    node_c_join_time: float = 100.0,
    seed: int = 0,
    qma_config: Optional[QmaConfig] = None,
) -> Dict[int, List[Tuple[float, float]]]:
    """Fluctuating-traffic experiment of Fig. 12.

    Node A alternates between ``low_rate`` and ``high_rate`` every
    ``phase_duration`` seconds; node C joins after ``node_c_join_time`` with a
    constant rate.  Returns the cumulative-Q-value history per node (the
    ``q_history`` table of a :class:`ConvergenceCollector`).
    """
    built = ScenarioBuilder(_paper_scenario(seed, qma_config)).build()
    sim, network = built.sim, built.network

    traffic_a = built.fluctuating_source(
        NODE_A,
        phases=[(low_rate, phase_duration), (high_rate, phase_duration)],
        start_time=0.0,
        rng_name="fluctuating-a",
    )
    network.node(NODE_A).attach_traffic(traffic_a)

    traffic_c = built.poisson_source(
        NODE_C,
        rate=node_c_rate,
        start_time=node_c_join_time,
        rng_name="fluctuating-c",
    )

    ctx = CollectionContext(sim=sim, network=network, sources=SOURCES)
    convergence = ConvergenceCollector()
    convergence.attach(ctx)

    network.start()
    sim.schedule_at(node_c_join_time, traffic_c.start)
    sim.run_until(duration)

    report = SimReport(experiment="hidden-node", mac="qma", duration=sim.now)
    convergence.finalize(ctx, report)
    return report.tables["q_history"]


def run_slot_utilisation(
    delta: float = 10.0,
    snapshot_time: float = 150.0,
    duration: float = 400.0,
    warmup: float = 100.0,
    seed: int = 0,
    qma_config: Optional[QmaConfig] = None,
) -> Tuple[SlotUtilisation, SlotUtilisation]:
    """Subslot utilisation after the first exploration phase and for the final policy.

    Returns ``(snapshot, final)`` — the data behind Figs. 13-15.
    """
    built = ScenarioBuilder(_paper_scenario(seed, qma_config)).build()
    sim, network = built.sim, built.network

    for node_id in SOURCES:
        generator = built.poisson_source(
            node_id,
            rate=delta,
            start_time=warmup,
            rng_name=f"slots-{node_id}",
        )
        network.node(node_id).attach_traffic(generator)

    network.start()

    # Attached after network start so the snapshot event keeps the exact
    # heap position (and tie-breaking sequence number) of earlier releases.
    ctx = CollectionContext(sim=sim, network=network, sources=SOURCES, warmup=warmup)
    slots = SlotUtilisationCollector(snapshot_time=snapshot_time)
    slots.attach(ctx)

    sim.run_until(duration)

    report = SimReport(experiment="hidden-node", mac="qma", duration=sim.now)
    slots.finalize(ctx, report)
    return report.details["slot_utilisation_snapshot"], report.details["slot_utilisation"]
