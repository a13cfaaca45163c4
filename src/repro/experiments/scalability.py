"""Scalability experiments with DSME secondary traffic (Sect. 6.3, Figs. 21-22).

A concentric data-collection topology with 7, 19, 43 or 91 nodes routes
fluctuating primary traffic towards the central sink over GTS.  The GTS
(de)allocation handshakes plus periodic routing broadcasts form the
secondary traffic carried by the contention access period, whose channel
access is any MAC registered in :mod:`repro.mac.registry` (the paper
evaluates QMA vs. slotted/unslotted CSMA/CA).

The runner is a thin composition: scenario assembly goes through
:meth:`repro.scenario.ScenarioBuilder.build_dsme` and the metrics come
from the collector registry (default: the ``dsme`` secondary-traffic
collector), returned as a typed :class:`~repro.metrics.report.SimReport`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

from repro.dsme.superframe import SuperframeConfig
from repro.metrics.base import CollectionContext
from repro.metrics.registry import build_collectors
from repro.metrics.report import SimReport
from repro.scenario.builder import ScenarioBuilder, topology_accepts_node_count
from repro.scenario.config import ScenarioConfig
from repro.traffic.generators import FluctuatingPoissonTraffic

#: Ring counts of the paper, corresponding to 7 / 19 / 43 / 91 nodes.
PAPER_RINGS = (1, 2, 3, 4)

#: Node count of seeded/placement topologies when ``nodes`` is not given
#: (matches the 2-ring concentric deployment of the paper).
DEFAULT_TOPOLOGY_NODES = 19

#: Default collector composition of the scalability runner.
DEFAULT_COLLECTORS = ("dsme",)

COLLECTOR_OVERRIDES: Dict[str, Dict[str, Any]] = {}


def run_scalability(
    mac: str = "qma",
    rings: int = 2,
    duration: float = 300.0,
    warmup: float = 200.0,
    low_rate: float = 1.0,
    high_rate: float = 10.0,
    phase_duration: float = 5.0,
    seed: int = 0,
    config: Optional[SuperframeConfig] = None,
    route_discovery_period: Optional[float] = 2.0,
    topology: str = "concentric",
    nodes: Optional[int] = None,
    propagation: Optional[str] = None,
    propagation_params: Optional[Mapping[str, Any]] = None,
    interference: str = "collision",
    sinr_threshold_db: float = 10.0,
    collectors: Optional[Sequence[str]] = None,
    trace: bool = False,
    trace_limit: Optional[int] = None,
) -> SimReport:
    """Run one DSME scalability scenario.

    The paper uses a warm-up of 200 s for network formation and alternating
    per-node rates of δ = 1 and δ = 10 packets/s every 5 s; ``duration`` is the
    total simulated time including the warm-up.

    ``topology`` names any registered data-collection topology (default:
    the paper's ``concentric`` rings, sized by ``rings``).  Count-sized
    topologies — e.g. ``random`` uniform placement — are sized by
    ``nodes`` (default :data:`DEFAULT_TOPOLOGY_NODES`); fixed-size
    topologies (``iotlab-tree``/``iotlab-star``/``hidden-node``) take
    neither knob and reject an explicit ``nodes``.  Mixed
    ``--grid topology=...`` sweeps stay convenient: ``rings`` only sizes
    ``concentric`` grid points and ``nodes`` only count-sized ones, each
    ignored where not applicable.  Seeded placement factories receive the
    scenario seed, so the deployment is a deterministic function of the
    seed (and part of the construction cache key).
    """
    if duration <= warmup:
        raise ValueError("duration must exceed the warm-up time")
    if topology == "concentric":
        if rings < 1:
            raise ValueError("rings must be at least 1")
        topology_params: Dict[str, Any] = {"rings": rings}
    elif topology_accepts_node_count(topology):
        node_count = DEFAULT_TOPOLOGY_NODES if nodes is None else int(nodes)
        if node_count < 2:
            raise ValueError("nodes must be at least 2 (a sink and one source)")
        topology_params = {"num_nodes": node_count}
    else:
        if nodes is not None:
            raise ValueError(
                f"topology {topology!r} has a fixed size; the nodes parameter "
                "only applies to count-sized topologies such as 'random'"
            )
        topology_params = {}

    scenario = ScenarioConfig(
        topology=topology,
        topology_params=topology_params,
        mac=mac,
        propagation=propagation,
        propagation_params=dict(propagation_params or {}),
        interference=interference,
        sinr_threshold_db=sinr_threshold_db,
        seed=seed,
        trace=trace,
        trace_limit=trace_limit,
    )
    built = ScenarioBuilder(scenario).build_dsme(
        superframe_config=config,
        route_discovery_period=route_discovery_period,
    )
    sim, topology, dsme = built.sim, built.topology, built.dsme

    ctx = CollectionContext(
        sim=sim,
        network=dsme.network,
        sources=tuple(dsme.sources()),
        warmup=warmup,
        dsme=dsme,
    )
    active = build_collectors(
        DEFAULT_COLLECTORS if collectors is None else collectors, COLLECTOR_OVERRIDES
    )
    for collector in active:
        collector.attach(ctx)

    for node_id, dsme_node in dsme.sources().items():
        traffic = FluctuatingPoissonTraffic(
            sim,
            dsme_node.generate_data,
            phases=[(low_rate, phase_duration), (high_rate, phase_duration)],
            start_time=warmup,
            rng_name=f"scalability-{node_id}",
        )
        sim.schedule_at(warmup, traffic.start)

    dsme.start()
    sim.run_until(duration)

    report_params: Dict[str, Any] = {
        "rings": rings, "duration": duration, "warmup": warmup, "seed": seed,
    }
    if scenario.topology != "concentric":
        # Non-default topologies record their axis; the concentric default
        # keeps the historical parameter set for report parity.
        report_params["topology"] = scenario.topology
        report_params.update(scenario.topology_params)
    report = SimReport(
        experiment="scalability",
        mac=mac,
        topology=topology.name,
        params=report_params,
        duration=sim.now,
        trace_dropped=ctx.trace_dropped(),
    )
    for collector in active:
        collector.finalize(ctx, report)
    return report


def sweep_scalability(
    macs: Sequence[str] = ("qma", "slotted-csma", "unslotted-csma"),
    rings: Sequence[int] = PAPER_RINGS,
    repetitions: int = 1,
    base_seed: int = 0,
    jobs: int = 1,
    propagations: Sequence[Optional[str]] = (None,),
    metrics: Optional[Sequence[str]] = None,
    **kwargs,
) -> Dict[str, Dict[int, list]]:
    """Sweep over MACs and ring counts (the data behind Figs. 21-22).

    Runs through the campaign layer; ``jobs`` fans the cross-product out
    over a process pool (results are independent of the worker count).
    """
    from repro.campaign.runner import CampaignRunner  # local import: campaign imports us
    from repro.campaign.spec import Sweep

    sweep = Sweep(
        experiment="scalability",
        macs=macs,
        propagations=propagations,
        grid={"rings": list(rings)},
        fixed=dict(kwargs),
        seeds=[base_seed + rep for rep in range(repetitions)],
        metrics=metrics,
    )
    campaign = CampaignRunner(jobs=jobs, keep_raw=True).run(sweep)

    results: Dict[str, Dict[int, list]] = {}
    for record in campaign:
        mac = record.scenario.mac
        ring_count = record.scenario.params["rings"]
        results.setdefault(mac, {}).setdefault(ring_count, []).append(record.raw)
    return results
