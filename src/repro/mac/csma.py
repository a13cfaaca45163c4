"""IEEE 802.15.4 CSMA/CA in its unslotted and slotted variants.

These are the baselines QMA is compared against throughout the paper's
evaluation (Figs. 7-9, 18, 19, 21, 22).  Both variants follow the standard's
algorithm:

* unslotted: random backoff of ``random(0, 2^BE - 1)`` unit backoff periods,
  one CCA, exponential backoff up to ``macMaxCSMABackoffs``; a frame is
  dropped after ``macMaxFrameRetries`` unacknowledged transmissions.
* slotted: backoffs and CCAs are aligned to unit-backoff-period boundaries
  and a transmission requires ``CW = 2`` consecutive idle CCAs.

Both variants honour an :class:`~repro.mac.gate.ActivityGate`, which is used
to confine them to the CAP in the DSME scalability experiment.
"""

from __future__ import annotations

import math
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
class CsmaConfig:
    """Parameters of the CSMA/CA algorithm (IEEE 802.15.4 defaults)."""

    mac_min_be: int = 3
    mac_max_be: int = 5
    max_csma_backoffs: int = 4
    max_frame_retries: int = 3
    queue_capacity: int = 8
    contention_window: int = 2  # only used by the slotted variant

    def __post_init__(self) -> None:
        if not 0 <= self.mac_min_be <= self.mac_max_be:
            raise ValueError("require 0 <= mac_min_be <= mac_max_be")
        if self.max_csma_backoffs < 0 or self.max_frame_retries < 0:
            raise ValueError("retry limits must be non-negative")


@register_mac("unslotted-csma", config_cls=CsmaConfig,
              description="unslotted IEEE 802.15.4 CSMA/CA")
class UnslottedCsmaCa(MacProtocol):
    """Unslotted IEEE 802.15.4 CSMA/CA."""

    name = "unslotted-csma"

    def __init__(
        self,
        sim: "Simulator",
        radio: "Radio",
        config: Optional[CsmaConfig] = None,
        gate: Optional[ActivityGate] = None,
    ) -> None:
        self.config = config if config is not None else CsmaConfig()
        super().__init__(
            sim,
            radio,
            queue_capacity=self.config.queue_capacity,
            max_frame_retries=self.config.max_frame_retries,
            gate=gate,
        )
        self._rng = sim.rng.stream(f"csma-{self.node_id}")
        self._busy = False
        self._nb = 0
        self._be = self.config.mac_min_be

    # ------------------------------------------------------------------ hooks
    def start(self) -> None:
        super().start()
        self._try_start_attempt()

    def _notify_enqueue(self) -> None:
        if self._started:
            self._try_start_attempt()

    def _try_start_attempt(self) -> None:
        if self._busy or self.queue.empty:
            return
        self._busy = True
        self._nb = 0
        self._be = self.config.mac_min_be
        self._schedule_backoff()

    # ---------------------------------------------------------------- backoff
    def _backoff_delay(self) -> float:
        periods = self._rng.randint(0, (1 << self._be) - 1)
        return periods * self.phy.unit_backoff_period

    def _schedule_backoff(self) -> None:
        now = self.sim.now
        if not self.gate.active(now):
            resume = self.gate.next_active_time(now)
            self.sim.schedule_at(resume, self._schedule_backoff)
            return
        self.sim.schedule(self._backoff_delay(), self._perform_cca)

    def _perform_cca(self) -> None:
        frame = self.queue.peek()
        if frame is None:
            self._busy = False
            return
        now = self.sim.now
        if not self.gate.active(now):
            resume = self.gate.next_active_time(now)
            self.sim.schedule_at(resume, self._perform_cca)
            return
        if self._cca():
            self.sim.schedule(self.phy.cca_duration + self.phy.turnaround_time,
                              self._transmit_head, frame)
        else:
            self._nb += 1
            self._be = min(self._be + 1, self.config.mac_max_be)
            if self._nb > self.config.max_csma_backoffs:
                self._channel_access_failure(frame)
            else:
                self._schedule_backoff()

    def _transmit_head(self, frame: Frame) -> None:
        if self.queue.peek() is not frame:
            self._busy = False
            self._try_start_attempt()
            return
        if self.radio.transmitting:
            # Should not happen (the MAC serialises transmissions), but guard anyway.
            self._schedule_backoff()
            return
        self._begin_transmission(frame)

    def _channel_access_failure(self, frame: Frame) -> None:
        self.stats.dropped_channel_access += 1
        self._finish_frame(frame, success=False)
        self._busy = False
        self._try_start_attempt()

    # ------------------------------------------------------------ transaction
    def _transaction_complete(self, frame: Frame, result: TransactionResult) -> None:
        if result is TransactionResult.SUCCESS:
            self._finish_frame(frame, success=True)
            self._busy = False
            self._try_start_attempt()
            return
        # NO_ACK: retry the whole CSMA procedure for the same frame.
        frame.retries += 1
        if frame.retries > self.config.max_frame_retries:
            self.stats.dropped_retries += 1
            self._finish_frame(frame, success=False)
            self._busy = False
            self._try_start_attempt()
        else:
            self._nb = 0
            self._be = self.config.mac_min_be
            self._schedule_backoff()


@register_mac("slotted-csma", config_cls=CsmaConfig,
              description="slotted IEEE 802.15.4 CSMA/CA (CW = 2)")
class SlottedCsmaCa(UnslottedCsmaCa):
    """Slotted IEEE 802.15.4 CSMA/CA (backoff boundaries, CW = 2)."""

    name = "slotted-csma"

    def __init__(
        self,
        sim: "Simulator",
        radio: "Radio",
        config: Optional[CsmaConfig] = None,
        gate: Optional[ActivityGate] = None,
    ) -> None:
        super().__init__(sim, radio, config=config, gate=gate)
        self._cw = self.config.contention_window

    # ------------------------------------------------------------ slot helpers
    def _next_boundary(self, time: Optional[float] = None) -> float:
        """The next unit-backoff-period boundary at or after ``time``.

        Floating-point rounding can place the computed boundary a fraction of
        a nanosecond *before* ``time``; the result is clamped so that events
        are never scheduled into the past.
        """
        period = self.phy.unit_backoff_period
        t = self.sim.now if time is None else time
        slots = math.ceil(round(t / period, 9))
        return max(slots * period, t)

    def _schedule_backoff(self) -> None:
        now = self.sim.now
        if not self.gate.active(now):
            resume = self.gate.next_active_time(now)
            self.sim.schedule_at(resume, self._schedule_backoff)
            return
        self._cw = self.config.contention_window
        boundary = self._next_boundary()
        target = boundary + self._backoff_delay()
        self.sim.schedule_at(target, self._perform_cca)

    def _perform_cca(self) -> None:
        frame = self.queue.peek()
        if frame is None:
            self._busy = False
            return
        now = self.sim.now
        if not self.gate.active(now):
            resume = self.gate.next_active_time(now)
            self.sim.schedule_at(resume, self._perform_cca)
            return
        if self._cca():
            self._cw -= 1
            if self._cw <= 0:
                delay = self.phy.cca_duration + self.phy.turnaround_time
                self.sim.schedule(delay, self._transmit_head, frame)
            else:
                next_boundary = self._next_boundary(self.sim.now + self.phy.unit_backoff_period)
                self.sim.schedule_at(next_boundary, self._perform_cca)
        else:
            self._cw = self.config.contention_window
            self._nb += 1
            self._be = min(self._be + 1, self.config.mac_max_be)
            if self._nb > self.config.max_csma_backoffs:
                self._channel_access_failure(frame)
            else:
                self._schedule_backoff()
