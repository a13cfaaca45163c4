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
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.slots import SlotUtilisation
from repro.core.config import QmaConfig
from repro.mac.registry import get_mac_spec
from repro.metrics.base import CollectionContext
from repro.metrics.collectors import ConvergenceCollector, SlotUtilisationCollector
from repro.metrics.registry import build_collectors
from repro.metrics.report import SimReport
from repro.scenario.builder import BuiltScenario, ScenarioBuilder
from repro.scenario.config import ScenarioConfig
from repro.topology.hidden_node import NODE_A, NODE_C

#: Packet generation rates of Fig. 7-9.
PAPER_DELTAS = (1, 2, 4, 6, 8, 10, 25, 50, 100)

#: The two traffic sources of the scenario (B is the sink).
SOURCES = (NODE_A, NODE_C)

#: Default collector composition of the hidden-node runners.
DEFAULT_COLLECTORS = ("pdr", "queue", "delay", "attempts", "convergence")

#: Per-collector constructor overrides for this experiment (registry
#: defaults already match the hidden-node metric conventions).
COLLECTOR_OVERRIDES: Dict[str, Dict[str, Any]] = {}


def _default_qma_config() -> QmaConfig:
    return QmaConfig()


def _build(
    mac: str,
    seed: int,
    qma_config: Optional[QmaConfig],
    propagation: Optional[str],
    propagation_params: Optional[Mapping[str, Any]],
    link_distance: float,
    trace: bool = False,
    trace_limit: Optional[int] = None,
    interference: str = "collision",
    sinr_threshold_db: float = 10.0,
) -> BuiltScenario:
    """Assemble the hidden-node scenario through the builder."""
    scenario = ScenarioConfig(
        topology="hidden-node",
        topology_params={"link_distance": link_distance},
        mac=mac,
        propagation=propagation,
        propagation_params=dict(propagation_params or {}),
        interference=interference,
        sinr_threshold_db=sinr_threshold_db,
        seed=seed,
        trace=trace,
        trace_limit=trace_limit,
    )
    if get_mac_spec(mac).config_cls is QmaConfig:
        scenario.mac_config = qma_config if qma_config is not None else _default_qma_config()
    return ScenarioBuilder(scenario).build()


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
    packets, 100 s); benchmarks pass smaller values.  ``collectors`` names
    registered metric collectors (default: :data:`DEFAULT_COLLECTORS`);
    ``interference="sinr"`` (with a propagation model) swaps in the
    SINR/capture channel.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if packets_per_node <= 0:
        raise ValueError("packets_per_node must be positive")

    built = _build(
        mac, seed, qma_config, propagation, propagation_params, link_distance,
        trace=trace, trace_limit=trace_limit,
        interference=interference, sinr_threshold_db=sinr_threshold_db,
    )
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
        for node_id in SOURCES
    ]

    ctx = CollectionContext(
        sim=sim,
        network=network,
        sources=SOURCES,
        warmup=warmup,
        management_generators=dict(zip(SOURCES, management)),
    )
    active = build_collectors(
        DEFAULT_COLLECTORS if collectors is None else collectors, COLLECTOR_OVERRIDES
    )
    for collector in active:
        collector.attach(ctx)

    network.start()

    # Primary traffic starts after the warm-up.
    data_generators = []
    for node_id, mgmt in zip(SOURCES, management):
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
    ctx.data_generators = dict(zip(SOURCES, data_generators))

    expected_duration = warmup + packets_per_node / delta + drain_time
    end_time = min(expected_duration, max_duration) if max_duration else expected_duration
    sim.run_until(end_time)

    report = SimReport(
        experiment="hidden-node",
        mac=mac,
        topology=built.topology.name,
        params={
            "delta": delta,
            "packets_per_node": packets_per_node,
            "warmup": warmup,
            "seed": seed,
        },
        duration=sim.now,
        trace_dropped=ctx.trace_dropped(),
    )
    for collector in active:
        collector.finalize(ctx, report)
    return report


def sweep_hidden_node(
    macs: Sequence[str] = ("qma", "slotted-csma", "unslotted-csma"),
    deltas: Sequence[float] = PAPER_DELTAS,
    packets_per_node: int = 1000,
    repetitions: int = 15,
    warmup: float = 100.0,
    base_seed: int = 0,
    jobs: int = 1,
    propagations: Sequence[Optional[str]] = (None,),
    metrics: Optional[Sequence[str]] = None,
    **kwargs,
) -> Dict[str, Dict[float, List[SimReport]]]:
    """Full sweep over MACs and packet rates (the data behind Figs. 7-9).

    Runs through the campaign layer; ``jobs`` fans the cross-product out
    over a process pool (results are independent of the worker count).
    ``metrics`` optionally selects the collector set per run.
    """
    from repro.campaign.runner import CampaignRunner  # local import: campaign imports us
    from repro.campaign.spec import Sweep

    sweep = Sweep(
        experiment="hidden-node",
        macs=macs,
        propagations=propagations,
        grid={"delta": list(deltas)},
        fixed={"packets_per_node": packets_per_node, "warmup": warmup, **kwargs},
        seeds=[base_seed + rep for rep in range(repetitions)],
        metrics=metrics,
    )
    campaign = CampaignRunner(jobs=jobs, keep_raw=True).run(sweep)

    results: Dict[str, Dict[float, List[SimReport]]] = {}
    for record in campaign:
        mac = record.scenario.mac
        delta = record.scenario.params["delta"]
        results.setdefault(mac, {}).setdefault(delta, []).append(record.raw)
    return results


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
    built = _build("qma", seed, qma_config, None, None, link_distance=50.0)
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

    network.start()
    sim.schedule_at(node_c_join_time, traffic_c.start)
    sim.run_until(duration)

    ctx = CollectionContext(sim=sim, network=network, sources=SOURCES)
    report = SimReport(experiment="hidden-node", mac="qma", duration=sim.now)
    ConvergenceCollector().finalize(ctx, report)
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
    built = _build("qma", seed, qma_config, None, None, link_distance=50.0)
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
