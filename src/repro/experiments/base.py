"""Shared helpers for the experiment runners.

:func:`scenario_config` turns the hidden-node and testbed runners'
arguments into a :class:`~repro.scenario.config.ScenarioConfig`.  MAC
protocols are resolved through :mod:`repro.mac.registry`; the old
hard-coded if/elif ladder is gone.  :data:`MAC_KINDS` and
:func:`make_mac_factory` remain as thin registry views for back-compat —
new code should use :class:`repro.scenario.ScenarioBuilder` (or the
registry directly).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.core.config import QmaConfig
from repro.core.exploration import ExplorationStrategy
from repro.core.rewards import RewardFunction
from repro.mac.aloha import AlohaConfig
from repro.mac.csma import CsmaConfig
from repro.mac.registry import RegistryError, get_mac_spec, mac_kinds
from repro.mac.tdma import TdmaConfig
from repro.net.network import MacFactory
from repro.scenario.config import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.base import MacProtocol
    from repro.phy.radio import Radio
    from repro.sim.engine import Simulator

#: Channel-access schemes available to every experiment — a snapshot of the
#: registry taken when this module is imported.  Protocols registered later
#: (third-party plugins) are still buildable via :func:`make_mac_factory`
#: and sweepable; call :func:`repro.mac.registry.mac_kinds` for a live view.
MAC_KINDS = mac_kinds()


def make_mac_factory(
    kind: str,
    qma_config: Optional[QmaConfig] = None,
    csma_config: Optional[CsmaConfig] = None,
    aloha_config: Optional[AlohaConfig] = None,
    tdma_config: Optional[TdmaConfig] = None,
    exploration: Optional[Callable[[], ExplorationStrategy]] = None,
    rewards: Optional[RewardFunction] = None,
    gate=None,
) -> MacFactory:
    """Build a :data:`~repro.net.network.MacFactory` for the given protocol name.

    A thin lookup into :mod:`repro.mac.registry`: the per-family config
    keywords are routed to the protocol whose config class matches.
    ``exploration`` is a zero-argument callable creating a fresh exploration
    strategy per node (strategies are stateful and must not be shared).
    """
    try:
        spec = get_mac_spec(kind)
    except RegistryError as exc:
        raise ValueError(str(exc)) from None

    by_config_cls = {
        QmaConfig: qma_config,
        CsmaConfig: csma_config,
        AlohaConfig: aloha_config,
        TdmaConfig: tdma_config,
    }
    config = by_config_cls.get(spec.config_cls)

    def factory(sim: "Simulator", radio: "Radio") -> "MacProtocol":
        kwargs = {}
        if spec.config_cls is QmaConfig:
            kwargs["exploration"] = exploration() if exploration is not None else None
            kwargs["rewards"] = rewards
        return spec.build(sim, radio, config=config, gate=gate, **kwargs)

    return factory


def scenario_config(
    topology: str, mac: str, seed: int, qma_config: Optional[QmaConfig], **fields: Any
) -> ScenarioConfig:
    """The :class:`ScenarioConfig` of one experiment run; a QMA run gets
    ``qma_config`` or the default :class:`QmaConfig`."""
    scenario = ScenarioConfig(topology=topology, mac=mac, seed=seed, **fields)
    if get_mac_spec(mac).config_cls is QmaConfig:
        scenario.mac_config = qma_config if qma_config is not None else QmaConfig()
    return scenario
