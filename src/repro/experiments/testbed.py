"""Testbed-verification experiments (Sect. 6.2, Figs. 18-19).

The paper verifies QMA on FIT IoT-LAB hardware in a 10-node tree and a
17-node star topology with δ = 10 packets/s per node.  The physical testbed
is replaced by the simulated radio substrate (see DESIGN.md); the reported
metrics — per-node PDR and the number of transmission attempts (the paper's
proxy for energy consumption) — are the same.

The runners are thin compositions: scenario assembly goes through
:class:`repro.scenario.ScenarioBuilder` and the metrics come from the
collector registry (:data:`DEFAULT_COLLECTORS`, with the ``pdr`` collector
configured for the testbed's per-node, generator-counted convention),
returned as a typed :class:`~repro.metrics.report.SimReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING

from repro.core.config import QmaConfig
from repro.mac.registry import get_mac_spec
from repro.metrics.base import CollectionContext
from repro.metrics.registry import build_collectors
from repro.metrics.report import SimReport
from repro.scenario.builder import BuiltScenario, ScenarioBuilder
from repro.scenario.config import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Default collector composition of the testbed runners.
DEFAULT_COLLECTORS = ("pdr", "attempts")

#: The testbed convention: per-node PDR over the data generators' own
#: counts, ``overall_pdr`` as the headline scalar, data deliveries only.
COLLECTOR_OVERRIDES: Dict[str, Dict[str, Any]] = {
    "pdr": {
        "scalar_name": "overall_pdr",
        "per_node": True,
        "denominator": "generators",
        "delivered_scalar": "data",
    },
}


@dataclass
class PreparedTopologyRun:
    """A fully assembled testbed run, stopped just short of draining events.

    ``prepare_topology_run`` builds everything — scenario, traffic,
    collectors, management-stop schedule — and returns this handle; the
    caller then drives ``sim`` to ``end_time`` (the serial runner via
    ``sim.run_until``, the batch executor in lockstep with other seeds)
    and calls :meth:`finish` to finalize the collectors into the report.
    """

    built: BuiltScenario
    end_time: float
    _finalize: Callable[[], SimReport]

    @property
    def sim(self) -> "Simulator":
        return self.built.sim

    def finish(self) -> SimReport:
        """Build the :class:`SimReport` (call once, after the run)."""
        return self._finalize()

    def run(self) -> SimReport:
        """Serial execution: drain events to ``end_time`` and finish."""
        self.sim.run_until(self.end_time)
        return self.finish()


def _scenario_config(
    topology_name: str,
    mac: str,
    seed: int,
    qma_config: Optional[QmaConfig],
    link_error_rate: float,
    propagation: Optional[str],
    propagation_params: Optional[Mapping[str, Any]],
    interference: str,
    sinr_threshold_db: float,
    trace: bool,
    trace_limit: Optional[int],
) -> ScenarioConfig:
    scenario = ScenarioConfig(
        topology=topology_name,
        mac=mac,
        propagation=propagation,
        propagation_params=dict(propagation_params or {}),
        link_error_rate=link_error_rate,
        interference=interference,
        sinr_threshold_db=sinr_threshold_db,
        seed=seed,
        trace=trace,
        trace_limit=trace_limit,
    )
    if get_mac_spec(mac).config_cls is QmaConfig:
        scenario.mac_config = qma_config if qma_config is not None else QmaConfig()
    return scenario


def prepare_topology_run(
    topology_name: str,
    mac: str,
    delta: float,
    packets_per_node: int,
    warmup: float,
    seed: int,
    qma_config: Optional[QmaConfig],
    max_duration: Optional[float],
    link_error_rate: float,
    propagation: Optional[str] = None,
    propagation_params: Optional[Mapping[str, Any]] = None,
    interference: str = "collision",
    sinr_threshold_db: float = 10.0,
    collectors: Optional[Sequence[str]] = None,
    trace: bool = False,
    trace_limit: Optional[int] = None,
) -> PreparedTopologyRun:
    scenario = _scenario_config(
        topology_name,
        mac,
        seed,
        qma_config,
        link_error_rate,
        propagation,
        propagation_params,
        interference,
        sinr_threshold_db,
        trace,
        trace_limit,
    )
    built = ScenarioBuilder(scenario).build()
    sim, network = built.sim, built.network
    sources = tuple(node.node_id for node in network.sources())

    # Low-rate management traffic during the warm-up: in the testbed the
    # nodes associate and exchange management frames before data generation
    # starts, which gives the learning MAC its initial training signal.
    management = [
        built.attach_management(
            node.node_id,
            period=2.0,
            start_time=0.5,
            jitter=0.4,
            rng_name=f"testbed-mgmt-{node.node_id}",
        )
        for node in network.sources()
    ]

    data_generators = [
        built.poisson_source(
            node.node_id,
            rate=delta,
            start_time=warmup,
            max_packets=packets_per_node,
            rng_name=f"testbed-{node.node_id}",
            start_at=warmup,
        )
        for node in network.sources()
    ]

    ctx = CollectionContext(
        sim=sim,
        network=network,
        sources=sources,
        warmup=warmup,
        data_generators=dict(zip(sources, data_generators)),
        management_generators=dict(zip(sources, management)),
    )
    active = build_collectors(
        DEFAULT_COLLECTORS if collectors is None else collectors, COLLECTOR_OVERRIDES
    )
    for collector in active:
        collector.attach(ctx)

    network.start()
    for generator in management:
        sim.schedule_at(warmup, generator.stop)

    expected = warmup + packets_per_node / delta + 10.0
    end_time = min(expected, max_duration) if max_duration else expected

    def finalize() -> SimReport:
        report = SimReport(
            experiment=f"testbed-{'tree' if topology_name == 'iotlab-tree' else 'star'}",
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

    return PreparedTopologyRun(built=built, end_time=end_time, _finalize=finalize)


def _run_topology(*args: Any, **kwargs: Any) -> SimReport:
    return prepare_topology_run(*args, **kwargs).run()


def prepare_tree(
    mac: str = "qma",
    delta: float = 10.0,
    packets_per_node: int = 1000,
    warmup: float = 20.0,
    seed: int = 0,
    qma_config: Optional[QmaConfig] = None,
    max_duration: Optional[float] = None,
    link_error_rate: float = 0.02,
    propagation: Optional[str] = None,
    propagation_params: Optional[Mapping[str, Any]] = None,
    interference: str = "collision",
    sinr_threshold_db: float = 10.0,
    collectors: Optional[Sequence[str]] = None,
    trace: bool = False,
    trace_limit: Optional[int] = None,
) -> PreparedTopologyRun:
    """Assemble (but do not run) the tree-topology verification of Fig. 18."""
    return prepare_topology_run(
        "iotlab-tree",
        mac,
        delta,
        packets_per_node,
        warmup,
        seed,
        qma_config,
        max_duration,
        link_error_rate,
        propagation=propagation,
        propagation_params=propagation_params,
        interference=interference,
        sinr_threshold_db=sinr_threshold_db,
        collectors=collectors,
        trace=trace,
        trace_limit=trace_limit,
    )


def prepare_star(
    mac: str = "qma",
    delta: float = 10.0,
    packets_per_node: int = 1000,
    warmup: float = 20.0,
    seed: int = 0,
    qma_config: Optional[QmaConfig] = None,
    max_duration: Optional[float] = None,
    link_error_rate: float = 0.02,
    propagation: Optional[str] = None,
    propagation_params: Optional[Mapping[str, Any]] = None,
    interference: str = "collision",
    sinr_threshold_db: float = 10.0,
    collectors: Optional[Sequence[str]] = None,
    trace: bool = False,
    trace_limit: Optional[int] = None,
) -> PreparedTopologyRun:
    """Assemble (but do not run) the star-topology verification of Fig. 19."""
    return prepare_topology_run(
        "iotlab-star",
        mac,
        delta,
        packets_per_node,
        warmup,
        seed,
        qma_config,
        max_duration,
        link_error_rate,
        propagation=propagation,
        propagation_params=propagation_params,
        interference=interference,
        sinr_threshold_db=sinr_threshold_db,
        collectors=collectors,
        trace=trace,
        trace_limit=trace_limit,
    )


def run_tree(mac: str = "qma", **kwargs: Any) -> SimReport:
    """The tree-topology verification of Fig. 18."""
    return prepare_tree(mac=mac, **kwargs).run()


def run_star(mac: str = "qma", **kwargs: Any) -> SimReport:
    """The star-topology verification of Fig. 19."""
    return prepare_star(mac=mac, **kwargs).run()


def sweep_testbed(
    scenario: str = "tree",
    macs: Sequence[str] = ("qma", "unslotted-csma"),
    seeds: Sequence[int] = (0,),
    jobs: int = 1,
    propagations: Sequence[Optional[str]] = (None,),
    metrics: Optional[Sequence[str]] = None,
    **kwargs,
) -> Dict[str, List[SimReport]]:
    """Run the tree or star verification for several MACs and seeds.

    Runs through the campaign layer; ``jobs`` fans the cross-product out
    over a process pool (results are independent of the worker count).
    Returns ``{mac: [report per seed]}`` in seed order.
    """
    if scenario not in ("tree", "star"):
        raise ValueError(f"scenario must be 'tree' or 'star', got {scenario!r}")
    from repro.campaign.runner import CampaignRunner  # local import: campaign imports us
    from repro.campaign.spec import Sweep

    sweep = Sweep(
        experiment=f"testbed-{scenario}",
        macs=macs,
        propagations=propagations,
        fixed=dict(kwargs),
        seeds=list(seeds),
        metrics=metrics,
    )
    campaign = CampaignRunner(jobs=jobs, keep_raw=True).run(sweep)

    results: Dict[str, List[SimReport]] = {}
    for record in campaign:
        results.setdefault(record.scenario.mac, []).append(record.raw)
    return results


def compare_energy_proxy(
    macs: Sequence[str] = ("qma", "unslotted-csma"),
    seed: int = 0,
    jobs: int = 1,
    **kwargs,
) -> Dict[str, float]:
    """Transmission-attempt counts per MAC (the Sect. 6.2.1 energy argument)."""
    results = sweep_testbed(scenario="star", macs=macs, seeds=(seed,), jobs=jobs, **kwargs)
    return {mac: runs[0].transmission_attempts for mac, runs in results.items()}
