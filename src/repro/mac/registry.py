"""The MAC-protocol registry: channel-access schemes resolvable by name.

Every concrete MAC registers itself with :func:`register_mac` at class
definition time, together with its per-protocol config dataclass:

* ``qma`` — :class:`repro.core.mac.QmaMac` (:class:`repro.core.config.QmaConfig`)
* ``slotted-csma`` / ``unslotted-csma`` — IEEE 802.15.4 CSMA/CA
  (:class:`repro.mac.csma.CsmaConfig`)
* ``slotted-aloha`` / ``aloha-q`` — the ALOHA family
  (:class:`repro.mac.aloha.AlohaConfig`)
* ``tdma`` — fixed-assignment TDMA (:class:`repro.mac.tdma.TdmaConfig`)

Everything that needs a MAC by name (experiments, the DSME CAP, the
campaign layer, the CLI) resolves it here, so adding a protocol is one
decorated class — no experiment or CLI change required::

    from repro.mac.base import MacProtocol
    from repro.mac.registry import register_mac

    @register_mac("my-mac", config_cls=MyConfig)
    class MyMac(MacProtocol):
        ...
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Type, TypeVar, TYPE_CHECKING

from repro.registry import Registry, RegistryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.base import MacProtocol
    from repro.mac.gate import ActivityGate
    from repro.phy.radio import Radio
    from repro.sim.engine import Simulator

M = TypeVar("M")


@dataclass(frozen=True)
class MacSpec:
    """One registered channel-access scheme."""

    name: str
    protocol: Type["MacProtocol"]
    config_cls: Optional[type] = None
    description: str = ""

    def config_defaults(self) -> Dict[str, Any]:
        """Field name -> default value of the protocol's config dataclass."""
        if self.config_cls is None or not is_dataclass(self.config_cls):
            return {}
        instance = self.config_cls()
        return {f.name: getattr(instance, f.name) for f in fields(instance)}

    def build(
        self,
        sim: "Simulator",
        radio: "Radio",
        config: Optional[Any] = None,
        gate: Optional["ActivityGate"] = None,
        **kwargs: Any,
    ) -> "MacProtocol":
        """Instantiate the protocol; extra kwargs go to protocol-specific knobs."""
        if config is not None and self.config_cls is not None:
            if not isinstance(config, self.config_cls):
                raise TypeError(
                    f"MAC {self.name!r} expects a {self.config_cls.__name__}, "
                    f"got {type(config).__name__}"
                )
        return self.protocol(sim, radio, config=config, gate=gate, **kwargs)


#: The process-wide MAC registry; built-ins register on first lookup.
MAC_REGISTRY: Registry[MacSpec] = Registry(
    "MAC protocol",
    builtin_modules=(
        "repro.core.mac",
        "repro.mac.csma",
        "repro.mac.aloha",
        "repro.mac.tdma",
    ),
)


def register_mac(
    name: str,
    config_cls: Optional[type] = None,
    description: str = "",
) -> Callable[[Type[M]], Type[M]]:
    """Class decorator registering a :class:`MacProtocol` subclass by name."""

    def decorator(cls: Type[M]) -> Type[M]:
        MAC_REGISTRY.register(
            name, MacSpec(name, cls, config_cls=config_cls, description=description)
        )
        return cls

    return decorator


def mac_kinds() -> Tuple[str, ...]:
    """Names of all registered channel-access schemes (sorted, deterministic)."""
    return tuple(sorted(MAC_REGISTRY.names()))


def get_mac_spec(name: str) -> MacSpec:
    """Resolve a registered MAC by name (raises :class:`RegistryError`)."""
    return MAC_REGISTRY.get(name)


def create_mac(
    name: str,
    sim: "Simulator",
    radio: "Radio",
    config: Optional[Any] = None,
    gate: Optional["ActivityGate"] = None,
    **kwargs: Any,
) -> "MacProtocol":
    """Build a MAC instance by registered name."""
    return get_mac_spec(name).build(sim, radio, config=config, gate=gate, **kwargs)


__all__ = [
    "MAC_REGISTRY",
    "MacSpec",
    "RegistryError",
    "create_mac",
    "get_mac_spec",
    "mac_kinds",
    "register_mac",
]
