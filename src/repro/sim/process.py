"""Periodic processes on top of the event engine.

A :class:`PeriodicProcess` re-schedules itself with a (possibly varying)
period.  It is the building block for subslot ticks, superframe beacons and
periodic routing broadcasts.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.sim.engine import SimulationError, Simulator

PeriodSpec = Union[float, Callable[[], float]]


class PeriodicProcess:
    """Invoke a callback periodically.

    Parameters
    ----------
    sim:
        The simulator to schedule on.
    period:
        Either a fixed period in seconds or a zero-argument callable returning
        the next period (used, e.g., for Poisson traffic generation).
    callback:
        Called once per period with no arguments.
    start_delay:
        Delay before the first invocation; defaults to one period.
    """

    def __init__(
        self,
        sim: Simulator,
        period: PeriodSpec,
        callback: Callable[[], None],
        start_delay: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self._period = period
        self.callback = callback
        self.start_delay = start_delay
        self._running = False
        #: Bumped by start()/stop(); an invocation scheduled under an older
        #: epoch is stale and returns at once.
        self._epoch = 0
        self.invocations = 0

    def _next_period(self) -> float:
        period = self._period() if callable(self._period) else self._period
        if period < 0:
            raise SimulationError(f"negative period: {period}")
        return period

    def start(self) -> None:
        """Start the process.  Starting an already running process is an error."""
        if self._running:
            raise SimulationError("process already running")
        self._running = True
        self._epoch += 1
        delay = self.start_delay if self.start_delay is not None else self._next_period()
        self.sim.schedule(delay, self._fire, self._epoch)

    def stop(self) -> None:
        """Stop the process; the pending invocation (if any) goes stale."""
        self._running = False
        self._epoch += 1

    @property
    def running(self) -> bool:
        return self._running

    def _fire(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        self.invocations += 1
        self.callback()
        if epoch == self._epoch:
            self.sim.schedule(self._next_period(), self._fire, epoch)
