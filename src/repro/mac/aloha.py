"""Slotted ALOHA and ALOHA-Q baselines.

ALOHA-Q (Chu et al.) is the frame/slot Q-learning family of MAC protocols
that the paper's related-work section compares QMA against: time is divided
into frames of ``slots_per_frame`` slots, every node learns a single Q-value
per slot using stateless Q-learning, transmits in the best slot of every
frame and updates the slot's Q-value with +1 on success and -1 on failure.

These baselines are used by the related-work example; they also
demonstrate the limitation the paper points out: a node can use at most one
slot per frame, so asymmetric traffic rates and hidden traffic patterns
cannot be learned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

from repro.mac.base import MacProtocol, TransactionResult
from repro.mac.gate import ActivityGate
from repro.mac.registry import register_mac
from repro.phy.frames import Frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.radio import Radio
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class AlohaConfig:
    """Parameters of the slotted ALOHA / ALOHA-Q baselines."""

    slots_per_frame: int = 10
    slot_duration: float = 5e-3
    queue_capacity: int = 8
    max_frame_retries: int = 3
    # ALOHA-Q learning parameters
    learning_rate: float = 0.1
    exploration_rate: float = 0.01

    def __post_init__(self) -> None:
        if self.slots_per_frame <= 0:
            raise ValueError("slots_per_frame must be positive")
        if self.slot_duration <= 0:
            raise ValueError("slot_duration must be positive")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if not 0.0 <= self.exploration_rate <= 1.0:
            raise ValueError("exploration_rate must lie in [0, 1]")


@register_mac("slotted-aloha", config_cls=AlohaConfig,
              description="slotted ALOHA (one random slot per frame)")
class SlottedAloha(MacProtocol):
    """Slotted ALOHA: transmit the head-of-line frame in one random slot per frame."""

    name = "slotted-aloha"

    def __init__(
        self,
        sim: "Simulator",
        radio: "Radio",
        config: Optional[AlohaConfig] = None,
        gate: Optional[ActivityGate] = None,
    ) -> None:
        self.config = config if config is not None else AlohaConfig()
        super().__init__(
            sim,
            radio,
            queue_capacity=self.config.queue_capacity,
            max_frame_retries=self.config.max_frame_retries,
            gate=gate,
        )
        self._rng = sim.rng.stream(f"aloha-{self.node_id}")
        self._slot_index = -1
        self._chosen_slot: Optional[int] = None
        self._in_flight: Optional[Frame] = None
        #: Slot-clock epoch, bumped by start()/stop(): a slot tick
        #: scheduled under an older epoch is stale and returns at once.
        self._epoch = 0

    # ------------------------------------------------------------------ clock
    def start(self) -> None:
        super().start()
        self._epoch += 1
        self.sim.schedule(0.0, self._on_slot, self._epoch)

    def stop(self) -> None:
        self._epoch += 1

    def _on_slot(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        self._slot_index = (self._slot_index + 1) % self.config.slots_per_frame
        if self._slot_index == 0:
            self._chosen_slot = self._select_slot()
        self._maybe_transmit()
        self.sim.schedule(self.config.slot_duration, self._on_slot, epoch)

    # -------------------------------------------------------------- behaviour
    def _select_slot(self) -> int:
        """Pick the transmission slot for the upcoming frame period."""
        return self._rng.randrange(self.config.slots_per_frame)

    def _maybe_transmit(self) -> None:
        if self._in_flight is not None or self._chosen_slot != self._slot_index:
            return
        if not self.gate.active(self.sim.now):
            return
        frame = self.queue.peek()
        if frame is None:
            return
        self._in_flight = frame
        self._begin_transmission(frame)

    def _notify_enqueue(self) -> None:
        # Transmissions happen only on slot boundaries; nothing to do here.
        pass

    # ------------------------------------------------------------ transaction
    def _transaction_complete(self, frame: Frame, result: TransactionResult) -> None:
        self._in_flight = None
        success = result is TransactionResult.SUCCESS
        self._learn(success)
        if success:
            self._finish_frame(frame, success=True)
            return
        frame.retries += 1
        if frame.retries > self.config.max_frame_retries:
            self.stats.dropped_retries += 1
            self._finish_frame(frame, success=False)

    def _learn(self, success: bool) -> None:
        """Hook for the learning variant; plain slotted ALOHA does not learn."""


@register_mac("aloha-q", config_cls=AlohaConfig,
              description="ALOHA-Q (stateless Q-learning over frame slots)")
class AlohaQ(SlottedAloha):
    """ALOHA-Q: stateless Q-learning over the slots of a frame."""

    name = "aloha-q"

    def __init__(
        self,
        sim: "Simulator",
        radio: "Radio",
        config: Optional[AlohaConfig] = None,
        gate: Optional[ActivityGate] = None,
    ) -> None:
        super().__init__(sim, radio, config=config, gate=gate)
        self.q_values: List[float] = [0.0] * self.config.slots_per_frame

    def _select_slot(self) -> int:
        if self._rng.random() < self.config.exploration_rate:
            return self._rng.randrange(self.config.slots_per_frame)
        best = max(self.q_values)
        candidates = [i for i, q in enumerate(self.q_values) if q == best]
        return self._rng.choice(candidates)

    def _learn(self, success: bool) -> None:
        slot = self._chosen_slot
        if slot is None:
            return
        reward = 1.0 if success else -1.0
        alpha = self.config.learning_rate
        self.q_values[slot] += alpha * (reward - self.q_values[slot])

    def converged(self, threshold: float = 0.8) -> bool:
        """True once one slot's Q-value clearly dominates (heuristic used in tests)."""
        return max(self.q_values) >= threshold
