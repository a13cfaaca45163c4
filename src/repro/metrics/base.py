"""The metric-collector protocol and the collection context.

A :class:`MetricCollector` observes one simulation run and contributes
scalars, time series and per-node tables to its
:class:`~repro.metrics.report.SimReport`.  Collectors subscribe to the
typed delivery hooks on :class:`~repro.net.network.Network` or read the
run's components in :meth:`attach` and write their results in
:meth:`finalize` — no post-hoc trace scraping.

The :class:`CollectionContext` is the collector's window into the run: the
simulator, the network (and the DSME substrate when present), the source
node set, the warm-up boundary and the runner's traffic generators.  The
experiment runners assemble it; collectors must treat it as read-only.

Determinism contract: :meth:`attach` must not schedule events or draw
random numbers unless the collector explicitly documents that it does
(e.g. a snapshot collector scheduling its snapshot callback) — hooks fire
inside existing events, so a purely observing collector can never perturb
the event sequence and the headline metrics stay bit-identical with and
without it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsme.network import DsmeNetwork
    from repro.metrics.report import SimReport
    from repro.net.network import Network
    from repro.sim.engine import Simulator
    from repro.traffic.generators import TrafficGenerator


@dataclass
class CollectionContext:
    """Everything a collector may observe about one run.

    ``data_generators`` / ``management_generators`` map source node ids to
    the traffic generators the runner attached; runners that create their
    generators after attaching collectors fill these in before the run
    starts (collectors only read them in :meth:`MetricCollector.finalize`).
    """

    sim: "Simulator"
    network: "Network"
    sources: Tuple[int, ...]
    warmup: float = 0.0
    dsme: Optional["DsmeNetwork"] = None
    data_generators: Dict[int, "TrafficGenerator"] = field(default_factory=dict)
    management_generators: Dict[int, "TrafficGenerator"] = field(default_factory=dict)

    def qma_macs(self) -> Iterator[Tuple[int, object]]:
        """Yield ``(node_id, mac)`` for every source running a QMA MAC."""
        from repro.core.mac import QmaMac  # local import: keeps this module light

        for node_id in self.sources:
            mac = self.network.mac(node_id)
            if isinstance(mac, QmaMac):
                yield node_id, mac

    def trace_dropped(self) -> int:
        """Trace records discarded by the run's bounded recorder (0 if untraced)."""
        tracer = self.sim.tracer
        return tracer.dropped if tracer is not None else 0


class MetricCollector(ABC):
    """Base class of all metric collectors.

    Subclasses override :meth:`attach` to subscribe to hooks and implement
    :meth:`finalize` to write scalars/series/tables into the report.
    :meth:`provides` names the scalars the collector emits (``*`` wildcards
    for per-node families such as ``pdr_node_*``); the campaign layer uses
    it to validate metric names before a sweep runs.
    """

    #: Registered name, set by :func:`repro.metrics.registry.register_collector`.
    name: str = "abstract"

    def provides(self) -> Tuple[str, ...]:
        """Scalar names this collector writes (patterns allowed)."""
        return ()

    def attach(self, ctx: CollectionContext) -> None:
        """Subscribe to hooks before the run starts.  Default: observe nothing."""

    @abstractmethod
    def finalize(self, ctx: CollectionContext, report: "SimReport") -> None:
        """Write this collector's metrics into the report after the run."""
