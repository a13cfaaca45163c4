"""Assemble simulations from declarative :class:`ScenarioConfig` specs.

The builder is the single place where topology + propagation + MAC +
link-quality wiring happens; the experiment runners only declare *what* to
build and attach their figure-specific traffic and instrumentation on top.
Every axis is resolved through a registry, so new MAC protocols,
propagation models and topologies become available to all experiments, the
campaign layer and the CLI without touching any of them.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.mac.registry import get_mac_spec
from repro.net.network import MacFactory, Network
from repro.phy.registry import get_propagation_spec
from repro.registry import Registry
from repro.scenario.artifacts import ARTIFACT_CACHE, ScenarioArtifacts
from repro.scenario.config import ScenarioConfig
from repro.sim.engine import Simulator
from repro.topology.base import Topology
from repro.topology.concentric import concentric_topology
from repro.topology.hidden_node import hidden_node_topology
from repro.topology.iotlab import iot_lab_star_topology, iot_lab_tree_topology
from repro.topology.random_topo import random_topology
from repro.topology.sinr_hidden_node import sinr_hidden_node_topology
from repro.traffic.generators import (
    FluctuatingPoissonTraffic,
    PeriodicTraffic,
    PoissonTraffic,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsme.network import DsmeNetwork
    from repro.dsme.superframe import SuperframeConfig

#: Topology factories resolvable by name (name -> callable(**params) -> Topology).
TOPOLOGY_REGISTRY: Registry = Registry("topology")
TOPOLOGY_REGISTRY.register("hidden-node", hidden_node_topology)
TOPOLOGY_REGISTRY.register("iotlab-tree", iot_lab_tree_topology)
TOPOLOGY_REGISTRY.register("iotlab-star", iot_lab_star_topology)
TOPOLOGY_REGISTRY.register("concentric", concentric_topology)
TOPOLOGY_REGISTRY.register("random", random_topology)
TOPOLOGY_REGISTRY.register("sinr-hidden-node", sinr_hidden_node_topology)


def topology_kinds() -> Tuple[str, ...]:
    """Names of all registered topologies (sorted, deterministic)."""
    return tuple(sorted(TOPOLOGY_REGISTRY.names()))


@lru_cache(maxsize=None)
def _factory_parameters(factory: Callable[..., Any]) -> Tuple[str, ...]:
    """Keyword parameter names of a topology factory (signature-cached)."""
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # pragma: no cover - builtins without signature
        return ()
    return tuple(signature.parameters)


def topology_accepts_seed(name: str) -> bool:
    """Whether the named topology factory is seeded (placement RNG input).

    Seeded factories (e.g. ``random``) receive the scenario seed from the
    builder unless ``topology_params`` pins one — making the placement seed
    part of the configuration and hence of the construction cache key.
    """
    return "seed" in _factory_parameters(TOPOLOGY_REGISTRY.get(name))


def topology_accepts_node_count(name: str) -> bool:
    """Whether the named topology factory is sized by a ``num_nodes`` count
    (e.g. ``random``), as opposed to fixed-size or ring-sized factories."""
    return "num_nodes" in _factory_parameters(TOPOLOGY_REGISTRY.get(name))


@dataclass
class BuiltScenario:
    """The live objects assembled from one :class:`ScenarioConfig`.

    Carries small traffic helpers so that runners attach their workload
    without repeating the generator wiring; helpers preserve the exact
    construction/scheduling order the runners historically used (event
    ties are broken by scheduling order, so order is part of determinism).
    """

    config: ScenarioConfig
    sim: Simulator
    topology: Topology
    network: Network

    # ------------------------------------------------------------- traffic
    def attach_management(
        self,
        node_id: int,
        period: float,
        start_time: float,
        jitter: float,
        rng_name: str,
    ) -> PeriodicTraffic:
        """Attach low-rate periodic management traffic to a node.

        The generator starts with :meth:`Network.start` (it is attached to
        the node); stop it with ``sim.schedule_at(t, generator.stop)``.
        """
        node = self.network.node(node_id)
        generator = PeriodicTraffic(
            self.sim,
            node.generate_packet,
            period=period,
            start_time=start_time,
            jitter=jitter,
            rng_name=rng_name,
        )
        node.attach_traffic(generator)
        return generator

    def poisson_source(
        self,
        node_id: int,
        rate: float,
        start_time: float,
        rng_name: str,
        max_packets: Optional[int] = None,
        start_at: Optional[float] = None,
    ) -> PoissonTraffic:
        """Create a Poisson data source; started at ``start_at`` when given."""
        node = self.network.node(node_id)
        generator = PoissonTraffic(
            self.sim,
            node.generate_packet,
            rate=rate,
            start_time=start_time,
            max_packets=max_packets,
            rng_name=rng_name,
        )
        if start_at is not None:
            self.sim.schedule_at(start_at, generator.start)
        return generator

    def fluctuating_source(
        self,
        node_id: int,
        phases: Sequence[Tuple[float, float]],
        start_time: float,
        rng_name: str,
    ) -> FluctuatingPoissonTraffic:
        """Create (unattached) fluctuating Poisson traffic for a node."""
        node = self.network.node(node_id)
        return FluctuatingPoissonTraffic(
            self.sim,
            node.generate_packet,
            phases=list(phases),
            start_time=start_time,
            rng_name=rng_name,
        )


@dataclass
class BuiltDsmeScenario:
    """A DSME scenario: the contention MACs live inside the CAP."""

    config: ScenarioConfig
    sim: Simulator
    topology: Topology
    dsme: "DsmeNetwork"

    @property
    def network(self) -> Network:
        return self.dsme.network


class ScenarioBuilder:
    """Resolve a :class:`ScenarioConfig` into live simulation objects."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config

    #: Connectivity redraw budget for seeded stochastic propagation models.
    MAX_CONNECTIVITY_DRAWS = 16

    #: Stride between redraw seeds, large so that scenario seeds k and k+1
    #: never share a propagation draw.
    _RESEED_STRIDE = 1_000_003

    # ----------------------------------------------------------- resolution
    def make_simulator(self) -> Simulator:
        return Simulator(
            seed=self.config.seed,
            trace=self.config.trace,
            trace_limit=self.config.trace_limit,
        )

    def make_topology(self) -> Topology:
        """Build the topology; with a propagation model, re-derive its links.

        See :meth:`make_topology_and_model`; this accessor discards the
        settled model for callers that only need connectivity.
        """
        return self.make_topology_and_model()[0]

    def make_topology_and_model(self) -> Tuple[Topology, Optional[Any]]:
        """Build the topology plus the propagation model it settled on.

        Seeded topology factories (a ``seed`` keyword, e.g. ``random``
        placement) receive the scenario seed unless ``topology_params``
        pins one, so placements are deterministic per scenario seed.

        Stochastic models (a ``seed`` parameter the builder injects itself)
        may disconnect the topology from its sink; following the usual
        topology-construction procedure the links are then redrawn with a
        deterministically derived seed, up to :data:`MAX_CONNECTIVITY_DRAWS`
        times — a pure function of the scenario seed, so parallel campaigns
        stay bit-identical.  A seed pinned via ``propagation_params`` is
        never resampled: a disconnecting pinned draw raises.

        Returns the topology together with the model instance of the draw
        that settled the links (None without a propagation model) — the
        SINR artifacts derive per-link received powers from exactly this
        instance, never from a fresh first-draw model whose shadowing seed
        may differ after redraws.
        """
        factory = TOPOLOGY_REGISTRY.get(self.config.topology)
        topology_params = dict(self.config.topology_params)
        if "seed" not in topology_params and "seed" in _factory_parameters(factory):
            topology_params["seed"] = self.config.seed
        topology = factory(**topology_params)
        if self.config.propagation is None:
            return topology, None

        spec = get_propagation_spec(self.config.propagation)
        params = dict(self.config.propagation_params)
        resample = spec.accepts_seed() and "seed" not in params
        draws = self.MAX_CONNECTIVITY_DRAWS if resample else 1
        last_error: Optional[Exception] = None
        for draw in range(draws):
            if resample:
                params["seed"] = self.config.seed + draw * self._RESEED_STRIDE
            model = spec.build(**params)
            topology.derive_links(model)
            if topology.sink is None:
                return topology, model
            try:
                topology.build_routing_tree(topology.sink)
                return topology, model
            except ValueError as exc:
                last_error = exc
        raise ValueError(
            f"propagation model {self.config.propagation!r} left topology "
            f"{self.config.topology!r} disconnected after {draws} draw(s): {last_error}"
        )

    def make_propagation(self):
        """Build the propagation model of the *initial* draw.

        The scenario seed is injected when the model accepts one and
        ``propagation_params`` does not pin it.  Note that
        :meth:`make_topology` may settle on a later redraw when the first
        draw disconnects the topology — derive links through
        :meth:`make_topology`, not through this model, when connectivity
        matters.
        """
        if self.config.propagation is None:
            raise ValueError("scenario config has no propagation model set")
        spec = get_propagation_spec(self.config.propagation)
        params = dict(self.config.propagation_params)
        if spec.accepts_seed():
            params.setdefault("seed", self.config.seed)
        return spec.build(**params)

    def make_mac_factory(self) -> MacFactory:
        """A :data:`MacFactory` resolving the configured MAC through the registry.

        ``mac_params`` may carry per-protocol constructor knobs; a value
        under the key ``exploration`` is treated as a zero-argument factory
        and called once per node (exploration strategies are stateful and
        must not be shared between nodes).
        """
        spec = get_mac_spec(self.config.mac)
        mac_config = self.config.mac_config
        mac_params = dict(self.config.mac_params)
        exploration_factory = mac_params.pop("exploration", None)

        def factory(sim: Simulator, radio) -> Any:
            kwargs = dict(mac_params)
            if exploration_factory is not None:
                kwargs["exploration"] = exploration_factory()
            return spec.build(sim, radio, config=mac_config, **kwargs)

        return factory

    # ------------------------------------------------------------- artifacts
    def build_artifacts(self, freeze: bool = True) -> ScenarioArtifacts:
        """Build the run-independent construction artifacts of this config.

        The expensive half of assembly: topology factory, O(n²)
        propagation-derived links (with connectivity redraws) and routing
        tree, bundled with the propagation model that settled them.  With
        ``freeze`` (the default for cached bundles) the topology is sealed
        so sharing it across runs is safe; ``freeze=False`` keeps it
        mutable for a bundle only one run consumes.
        """
        topology, model = self.make_topology_and_model()
        if freeze:
            topology.freeze()
        return ScenarioArtifacts(topology=topology, model=model)

    def resolve_artifacts(self) -> ScenarioArtifacts:
        """The artifact bundle a build should consume.

        The process-wide :data:`ARTIFACT_CACHE` is consulted when enabled;
        misses build (and cache) a frozen bundle, uncacheable configs
        build a fresh mutable bundle per run.
        """
        key = self.config.cache_key() if ARTIFACT_CACHE.enabled else None
        if key is None:
            return self.build_artifacts(freeze=False)
        cached = ARTIFACT_CACHE.get(key)
        if cached is not None:
            return cached
        artifacts = self.build_artifacts(freeze=True)
        ARTIFACT_CACHE.put(key, artifacts)
        return artifacts

    # ------------------------------------------------------------- assembly
    def build(self) -> BuiltScenario:
        """Assemble simulator, topology, MACs and network.

        Per-run assembly consumes an artifact bundle (cached or freshly
        built) and only creates the stateful objects: Simulator, radios,
        MAC instances, nodes, RNG streams and the channel wiring.  Results
        are bit-identical with and without the cache.
        """
        artifacts = self.resolve_artifacts()
        sim = self.make_simulator()
        topology = artifacts.topology
        network = Network(
            sim,
            topology,
            self.make_mac_factory(),
            link_error_rate=self.config.link_error_rate,
            interference=self.config.interference,
            sinr_threshold_db=self.config.sinr_threshold_db,
            propagation_model=artifacts.model,
        )
        return BuiltScenario(config=self.config, sim=sim, topology=topology, network=network)

    def build_dsme(
        self,
        superframe_config: Optional["SuperframeConfig"] = None,
        route_discovery_period: Optional[float] = 2.0,
    ) -> BuiltDsmeScenario:
        """Assemble a DSME network whose CAP uses the configured MAC.

        ``mac_config`` is forwarded as the CAP MAC's config; the DSME layer
        owns the activity gate confining contention traffic to the CAP.
        Construction artifacts are cached/consumed exactly as in
        :meth:`build`.
        """
        from repro.dsme.network import DsmeNetwork

        artifacts = self.resolve_artifacts()
        sim = self.make_simulator()
        topology = artifacts.topology
        dsme = DsmeNetwork(
            sim,
            topology,
            cap_mac=self.config.mac,
            config=superframe_config,
            cap_mac_config=self.config.mac_config,
            route_discovery_period=route_discovery_period,
            link_error_rate=self.config.link_error_rate,
            interference=self.config.interference,
            sinr_threshold_db=self.config.sinr_threshold_db,
            propagation_model=artifacts.model,
        )
        return BuiltDsmeScenario(config=self.config, sim=sim, topology=topology, dsme=dsme)


def build_scenario(config: ScenarioConfig) -> BuiltScenario:
    """Convenience wrapper: ``ScenarioBuilder(config).build()``."""
    return ScenarioBuilder(config).build()
