"""Abstract MAC protocol with ACK / retransmission machinery and statistics.

Every concrete MAC (CSMA/CA, ALOHA, ALOHA-Q and QMA) derives from
:class:`MacProtocol`, which provides

* a bounded packet queue (head-of-line frame stays queued while in service,
  so the queue level matches the paper's definition with a maximum of 8),
* acknowledgement generation for received unicast frames,
* duplicate suppression by sequence number,
* an ACK-wait timer and the notion of a *transaction* (frame air time plus
  turnaround plus ACK wait) whose outcome subclasses react to, and
* the statistics needed for every figure of the evaluation.

Subclasses implement the channel-access strategy by overriding
:meth:`_notify_enqueue` (new frame available), :meth:`start` and
:meth:`_transaction_complete` (outcome of a transmission known).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.mac.gate import ActivityGate, AlwaysActiveGate
from repro.mac.queue import PacketQueue
from repro.phy.frames import Frame, FrameKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.radio import Radio
    from repro.sim.engine import Simulator

ReceiveCallback = Callable[[Frame], None]
SentCallback = Callable[[Frame, bool], None]
OverhearCallback = Callable[[Frame], None]


class TransactionResult(Enum):
    """Outcome of a single transmission attempt."""

    SUCCESS = auto()
    NO_ACK = auto()
    CHANNEL_ACCESS_FAILURE = auto()


@dataclass
class MacStats:
    """Counters shared by all MAC implementations."""

    offered: int = 0
    queue_drops: int = 0
    tx_attempts: int = 0
    tx_success: int = 0
    tx_no_ack: int = 0
    broadcasts_sent: int = 0
    dropped_retries: int = 0
    dropped_channel_access: int = 0
    acks_sent: int = 0
    delivered_to_upper: int = 0
    duplicates_suppressed: int = 0
    frames_overheard: int = 0
    cca_performed: int = 0
    cca_busy: int = 0
    per_kind_sent: Dict[FrameKind, int] = field(default_factory=dict)
    per_kind_failed: Dict[FrameKind, int] = field(default_factory=dict)

    def record_outcome(self, frame: Frame, success: bool) -> None:
        """Record the final per-kind outcome of a frame handed to the MAC."""
        counter = self.per_kind_sent if success else self.per_kind_failed
        counter[frame.kind] = counter.get(frame.kind, 0) + 1

    @property
    def attempts_per_success(self) -> float:
        """Average number of transmission attempts per successful frame."""
        successes = self.tx_success + self.broadcasts_sent
        if successes == 0:
            return float("inf") if self.tx_attempts else 0.0
        return self.tx_attempts / successes


class MacProtocol(ABC):
    """Base class of all channel-access protocols in the reproduction."""

    #: human readable protocol name, overridden by subclasses
    name = "abstract"

    def __init__(
        self,
        sim: "Simulator",
        radio: "Radio",
        queue_capacity: int = 8,
        max_frame_retries: int = 3,
        gate: Optional[ActivityGate] = None,
    ) -> None:
        self.sim = sim
        self.radio = radio
        self.node_id = radio.node_id
        self.phy = radio.channel.phy
        self.queue = PacketQueue(sim, queue_capacity)
        self.max_frame_retries = max_frame_retries
        self.gate: ActivityGate = gate if gate is not None else AlwaysActiveGate()
        self.stats = MacStats()

        self.receive_callback: Optional[ReceiveCallback] = None
        self.sent_callback: Optional[SentCallback] = None
        self.overhear_callback: Optional[OverhearCallback] = None

        self._awaiting_ack: Optional[Frame] = None
        self._recent_rx: "OrderedDict[int, None]" = OrderedDict()
        self._recent_rx_limit = 128
        self._started = False

        radio.frame_listener = self._on_radio_frame
        radio.tx_complete_listener = self._on_radio_tx_complete

    # ------------------------------------------------------------ upper API
    def start(self) -> None:
        """Start protocol timers.  May be called once; subclasses extend it."""
        self._started = True

    def send(self, frame: Frame) -> bool:
        """Accept a frame from the upper layer.

        Returns False if the queue was full and the frame was dropped.
        """
        self.stats.offered += 1
        if not self.queue.push(frame):
            self.stats.queue_drops += 1
            self.stats.record_outcome(frame, success=False)
            return False
        self._notify_enqueue()
        return True

    @property
    def queue_level(self) -> int:
        """Current queue occupancy (including the frame in service)."""
        return self.queue.level

    # ------------------------------------------------------------ subclass API
    @abstractmethod
    def _notify_enqueue(self) -> None:
        """Called whenever a new frame has been queued."""

    @abstractmethod
    def _transaction_complete(self, frame: Frame, result: TransactionResult) -> None:
        """Called when the outcome of a transmission attempt is known."""

    def _cca(self) -> bool:
        """Perform a CCA and update statistics; True means the channel is clear."""
        self.stats.cca_performed += 1
        clear = self.radio.cca()
        if not clear:
            self.stats.cca_busy += 1
        return clear

    def _begin_transmission(self, frame: Frame) -> float:
        """Start transmitting a frame; returns its air time."""
        frame.queue_level = self.queue.level
        self.stats.tx_attempts += 1
        return self.radio.transmit(frame)

    def _finish_frame(self, frame: Frame, success: bool) -> None:
        """Remove the head-of-line frame and notify the upper layer."""
        head = self.queue.peek()
        if head is frame:
            self.queue.pop()
        self.stats.record_outcome(frame, success)
        if self.sent_callback is not None:
            self.sent_callback(frame, success)

    # -------------------------------------------------------------- radio events
    def _on_radio_tx_complete(self, frame: Frame) -> None:
        if frame.kind is FrameKind.ACK:
            return
        if frame.requires_ack:
            self._awaiting_ack = frame
            timeout = self.phy.turnaround_time + self.phy.ack_wait_duration
            # Keyed by the attempt number: a timeout outlived by its ACK
            # (or by a later attempt) is stale and returns at once.
            self.sim.schedule(timeout, self._on_ack_timeout, self.stats.tx_attempts)
        else:
            self.stats.broadcasts_sent += 1
            self._transaction_complete(frame, TransactionResult.SUCCESS)

    def _on_ack_timeout(self, attempt: int) -> None:
        frame = self._awaiting_ack
        if frame is None or attempt != self.stats.tx_attempts:
            return
        self._awaiting_ack = None
        self.stats.tx_no_ack += 1
        self._transaction_complete(frame, TransactionResult.NO_ACK)

    def _on_radio_frame(self, frame: Frame) -> None:
        if frame.kind is FrameKind.ACK:
            self._handle_ack(frame)
            return
        if frame.dst == self.node_id or frame.is_broadcast:
            if frame.dst == self.node_id and frame.requires_ack:
                self._schedule_ack(frame)
            if frame.seq in self._recent_rx:
                self.stats.duplicates_suppressed += 1
                return
            self._remember(frame.seq)
            self.stats.delivered_to_upper += 1
            self._on_frame_for_us(frame)
            if self.receive_callback is not None:
                self.receive_callback(frame)
        else:
            self.stats.frames_overheard += 1
            self._on_overheard(frame)
            if self.overhear_callback is not None:
                self.overhear_callback(frame)

    def _handle_ack(self, ack: Frame) -> None:
        pending = self._awaiting_ack
        if ack.dst == self.node_id and pending is not None and ack.acknowledges(pending):
            self._awaiting_ack = None
            self.stats.tx_success += 1
            self._transaction_complete(pending, TransactionResult.SUCCESS)
        else:
            self.stats.frames_overheard += 1
            self._on_overheard(ack)
            if self.overhear_callback is not None:
                self.overhear_callback(ack)

    # ----------------------------------------------------------- subclass hooks
    def _on_frame_for_us(self, frame: Frame) -> None:
        """Hook for subclasses; called for every frame delivered to the upper layer."""

    def _on_overheard(self, frame: Frame) -> None:
        """Hook for subclasses; called for every overheard frame (incl. foreign ACKs)."""

    # ------------------------------------------------------------------- ACKs
    def _schedule_ack(self, frame: Frame) -> None:
        ack = frame.make_ack(self.node_id)
        self.sim.schedule(self.phy.turnaround_time, self._transmit_ack, ack)

    def _transmit_ack(self, ack: Frame) -> None:
        if self.radio.transmitting:
            # The MAC decided to transmit during the turnaround gap; the ACK is lost.
            return
        self.stats.acks_sent += 1
        self.radio.transmit(ack)

    def _remember(self, seq: int) -> None:
        self._recent_rx[seq] = None
        while len(self._recent_rx) > self._recent_rx_limit:
            self._recent_rx.popitem(last=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(node={self.node_id}, queue={self.queue.level})"
