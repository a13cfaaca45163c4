"""Activity gates restricting when a contention MAC may access the medium.

In the DSME scalability scenario (Sect. 6.3 of the paper) contention-based
traffic is only allowed during the contention access period (CAP) of each
superframe.  A gate abstracts this: the MAC asks :meth:`ActivityGate.active`
before touching the medium and :meth:`ActivityGate.next_active_time` to know
when to retry if the medium is currently out of bounds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class ActivityGate(ABC):
    """Decides whether contention-based access is currently allowed (as a
    function of ``now`` alone, fixed for the gate's lifetime: the QMA grid
    clock works boundaries out ahead and shares them between equal gates)."""

    @abstractmethod
    def active(self, now: float) -> bool:
        """True if the MAC may access the medium at time ``now``."""

    @abstractmethod
    def next_active_time(self, now: float) -> float:
        """The next time (>= now) at which the MAC may access the medium."""

    def remaining_active_time(self, now: float) -> float:
        """Seconds of contiguous activity remaining from ``now`` (inf if unbounded)."""
        return float("inf")


class AlwaysActiveGate(ActivityGate):
    """The default gate: the medium is always available (Sect. 6.1 / 6.2 scenarios)."""

    def active(self, now: float) -> bool:
        return True

    def next_active_time(self, now: float) -> float:
        return now


@dataclass(frozen=True)
class WindowedGate(ActivityGate):
    """Periodic activity windows (e.g. the CAP of every DSME superframe).

    The gate is active during ``[k * period + offset, k * period + offset +
    window)`` for every integer ``k >= 0``.  Frozen, so that gates with the
    same windows are equal and hash alike.
    """

    period: float
    window: float
    offset: float = 0.0

    #: Phases closer than this to the period boundary are snapped to 0 so that
    #: floating-point rounding at a window start cannot produce an event that
    #: believes it is still (infinitesimally) inside the previous period.
    _EPSILON = 1e-9

    def __post_init__(self) -> None:
        if self.period <= 0 or self.window <= 0:
            raise ValueError("period and window must be positive")
        if self.window > self.period:
            raise ValueError("window cannot exceed period")

    def _phase(self, now: float) -> float:
        phase = (now - self.offset) % self.period
        if self.period - phase < self._EPSILON:
            return 0.0
        return phase

    def active(self, now: float) -> bool:
        if now < self.offset:
            return False
        return self._phase(now) < self.window

    def next_active_time(self, now: float) -> float:
        if now < self.offset:
            return self.offset
        phase = self._phase(now)
        if phase < self.window:
            return now
        return now + (self.period - phase)

    def remaining_active_time(self, now: float) -> float:
        if not self.active(now):
            return 0.0
        return self.window - self._phase(now)
