"""SINR hidden-node experiment: the asymmetric-link regime under capture.

Four nodes on a line (see :mod:`repro.topology.sinr_hidden_node`) run under
the SINR interference model with a carrier-sense range wider than the
decode range.  The scenario is built so three claims hold simultaneously:

* the HIDDEN sender's uplink to the sink is geometrically in range but
  SINR-starved — its frames are *received as energy* yet never decoded, so
  ``hidden_delivered`` stays 0 while the node itself keeps receiving
  (overheard RELAY traffic);
* the NEAR sender's frames are captured over HIDDEN's at the sink (their
  signal clears the threshold against HIDDEN's interference), so NEAR's
  PDR stays high even during overlap — the binary collision model would
  destroy both frames;
* NEAR's transmissions are sensed-only at HIDDEN (beyond decode range,
  inside carrier-sense range), driving ``cca_sensed_only_count`` up.

The run itself is
:func:`repro.experiments.hidden_node.run_poisson_scenario`, the body of
:func:`~repro.experiments.hidden_node.run_hidden_node` as well; this module
only supplies the scenario, the sources and the collector defaults.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

from repro.core.config import QmaConfig
from repro.experiments.base import scenario_config
from repro.experiments.hidden_node import run_poisson_scenario
from repro.metrics.report import SimReport
from repro.topology.sinr_hidden_node import (
    CARRIER_SENSE_RANGE,
    COMMUNICATION_RANGE,
    HIDDEN,
    NEAR,
    RELAY,
)

#: The three traffic sources of the scenario (node 0 is the sink).
SOURCES = (NEAR, RELAY, HIDDEN)

#: Collector composition: PDR plus the asymmetry scalars of the regime.
DEFAULT_COLLECTORS = ("pdr", "attempts", "link-asymmetry")

#: Per-collector constructor overrides for this experiment.
COLLECTOR_OVERRIDES: Dict[str, Dict[str, Any]] = {
    "link-asymmetry": {"hidden_node": HIDDEN, "near_node": NEAR},
}

#: Default propagation parameters: unit disk with a decoupled, much wider
#: carrier-sense range (the regime needs NEAR sensed — not decoded — at
#: HIDDEN, 115 m away).
DEFAULT_PROPAGATION_PARAMS: Dict[str, Any] = {
    "communication_range": COMMUNICATION_RANGE,
    "carrier_sense_range": CARRIER_SENSE_RANGE,
}


def run_sinr_hidden_node(
    mac: str = "qma",
    delta: float = 10.0,
    packets_per_node: int = 200,
    warmup: float = 10.0,
    management_period: float = 5.0,
    drain_time: float = 5.0,
    seed: int = 0,
    qma_config: Optional[QmaConfig] = None,
    max_duration: Optional[float] = None,
    propagation: Optional[str] = "unit-disk",
    propagation_params: Optional[Mapping[str, Any]] = None,
    sinr_threshold_db: float = 10.0,
    collectors: Optional[Sequence[str]] = None,
    trace: bool = False,
    trace_limit: Optional[int] = None,
) -> SimReport:
    """Run one SINR hidden-node scenario and return its :class:`SimReport`.

    Defaults are sized for a quick demonstration run; the scalars of the
    ``link-asymmetry`` collector carry the regime's physics claims.  The
    SINR model always needs a propagation model, so ``propagation=None``
    means the default ``unit-disk``.
    """
    scenario = scenario_config(
        "sinr-hidden-node",
        mac,
        seed,
        qma_config,
        propagation="unit-disk" if propagation is None else propagation,
        propagation_params=dict(
            DEFAULT_PROPAGATION_PARAMS if propagation_params is None else propagation_params
        ),
        interference="sinr",
        sinr_threshold_db=sinr_threshold_db,
        trace=trace,
        trace_limit=trace_limit,
    )
    return run_poisson_scenario(
        "sinr-hidden-node", scenario, SOURCES, DEFAULT_COLLECTORS, COLLECTOR_OVERRIDES,
        collectors, delta, packets_per_node, warmup, management_period, drain_time,
        max_duration, report_params={"sinr_threshold_db": sinr_threshold_db},
    )
