"""Fixed-assignment TDMA baseline.

Time is divided into frames of ``slots_per_frame`` slots and every node owns
the slot ``node_id % slots_per_frame``: it transmits its head-of-line frame
only at the start of its own slot.  With at most ``slots_per_frame`` nodes
per collision domain the schedule is collision-free by construction, which
makes TDMA the contention-free reference point against the learned
(QMA / ALOHA-Q) and contention-based (CSMA/CA, slotted ALOHA) schemes — and
the registry's proof of extensibility: the protocol is one decorated class
and is immediately available to every experiment, sweep and CLI command.

Like the other baselines it honours an :class:`~repro.mac.gate.ActivityGate`
so it can be confined to the CAP of a DSME superframe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.mac.base import MacProtocol, TransactionResult
from repro.mac.gate import ActivityGate
from repro.mac.registry import register_mac
from repro.phy.frames import Frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.radio import Radio
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class TdmaConfig:
    """Parameters of the fixed-assignment TDMA baseline."""

    slots_per_frame: int = 10
    slot_duration: float = 5e-3
    queue_capacity: int = 8
    max_frame_retries: int = 3

    def __post_init__(self) -> None:
        if self.slots_per_frame <= 0:
            raise ValueError("slots_per_frame must be positive")
        if self.slot_duration <= 0:
            raise ValueError("slot_duration must be positive")
        if self.max_frame_retries < 0:
            raise ValueError("max_frame_retries must be non-negative")


@register_mac("tdma", config_cls=TdmaConfig, description="fixed-assignment TDMA")
class Tdma(MacProtocol):
    """Transmit only in the node's own slot of every TDMA frame."""

    name = "tdma"

    def __init__(
        self,
        sim: "Simulator",
        radio: "Radio",
        config: Optional[TdmaConfig] = None,
        gate: Optional[ActivityGate] = None,
    ) -> None:
        self.config = config if config is not None else TdmaConfig()
        super().__init__(
            sim,
            radio,
            queue_capacity=self.config.queue_capacity,
            max_frame_retries=self.config.max_frame_retries,
            gate=gate,
        )
        self.own_slot = self.node_id % self.config.slots_per_frame
        self._slot_index = -1
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
        self._maybe_transmit()
        self.sim.schedule(self.config.slot_duration, self._on_slot, epoch)

    # -------------------------------------------------------------- behaviour
    def _maybe_transmit(self) -> None:
        if self._in_flight is not None or self._slot_index != self.own_slot:
            return
        if not self.gate.active(self.sim.now) or self.radio.transmitting:
            return
        frame = self.queue.peek()
        if frame is None:
            return
        self._in_flight = frame
        self._begin_transmission(frame)

    def _notify_enqueue(self) -> None:
        # Transmissions happen only at the node's own slot boundary.
        pass

    # ------------------------------------------------------------ transaction
    def _transaction_complete(self, frame: Frame, result: TransactionResult) -> None:
        self._in_flight = None
        if result is TransactionResult.SUCCESS:
            self._finish_frame(frame, success=True)
            return
        frame.retries += 1
        if frame.retries > self.config.max_frame_retries:
            self.stats.dropped_retries += 1
            self._finish_frame(frame, success=False)
