"""Packet generation processes.

A generator owns a callback (typically ``node.generate_packet``) and invokes
it at generation instants.  Generators support

* a start time (the paper starts data generation after a 100 s or 200 s
  warm-up so that the MAC can associate and exchange management traffic),
* an optional cap on the number of generated packets (1000 in the paper),
* deterministic behaviour through the simulator's named RNG streams.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

GenerateCallback = Callable[[], None]


class TrafficGenerator(ABC):
    """Base class of all traffic generators."""

    def __init__(
        self,
        sim: "Simulator",
        callback: GenerateCallback,
        start_time: float = 0.0,
        max_packets: Optional[int] = None,
        rng_name: str = "traffic",
    ) -> None:
        if start_time < 0:
            raise ValueError("start_time must be non-negative")
        if max_packets is not None and max_packets < 0:
            raise ValueError("max_packets must be non-negative")
        self.sim = sim
        self.callback = callback
        self.start_time = start_time
        self.max_packets = max_packets
        self.generated = 0
        self._rng = sim.rng.stream(rng_name)
        self._running = False
        #: Bumped by start()/stop(); a generation scheduled under an older
        #: epoch is stale and returns at once.
        self._epoch = 0

    # ------------------------------------------------------------------ api
    def start(self) -> None:
        """Start generating packets at ``start_time``."""
        if self._running:
            raise RuntimeError("traffic generator already running")
        self._running = True
        self._epoch += 1
        first = max(self.start_time, self.sim.now) + self._next_interval()
        self.sim.schedule_at(first, self._generate, self._epoch)

    def stop(self) -> None:
        self._running = False
        self._epoch += 1

    @property
    def exhausted(self) -> bool:
        """True once the packet cap has been reached."""
        return self.max_packets is not None and self.generated >= self.max_packets

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------- internals
    @abstractmethod
    def _next_interval(self) -> float:
        """Time until the next packet generation."""

    def _generate(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        if self.exhausted:
            self._running = False
            return
        self.generated += 1
        self.callback()
        if self.exhausted:
            self._running = False
            return
        self.sim.schedule(self._next_interval(), self._generate, epoch)


class PoissonTraffic(TrafficGenerator):
    """Poisson packet generation with a fixed mean rate (packets per second)."""

    def __init__(
        self,
        sim: "Simulator",
        callback: GenerateCallback,
        rate: float,
        start_time: float = 0.0,
        max_packets: Optional[int] = None,
        rng_name: str = "traffic",
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        super().__init__(sim, callback, start_time, max_packets, rng_name)
        self.rate = rate

    def _next_interval(self) -> float:
        return self._rng.expovariate(self.rate)


class PeriodicTraffic(TrafficGenerator):
    """Deterministic packet generation with a fixed period (management traffic)."""

    def __init__(
        self,
        sim: "Simulator",
        callback: GenerateCallback,
        period: float,
        start_time: float = 0.0,
        max_packets: Optional[int] = None,
        jitter: float = 0.0,
        rng_name: str = "traffic",
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if jitter < 0 or jitter >= period:
            raise ValueError("jitter must lie in [0, period)")
        super().__init__(sim, callback, start_time, max_packets, rng_name)
        self.period = period
        self.jitter = jitter

    def _next_interval(self) -> float:
        if self.jitter == 0.0:
            return self.period
        return self.period + self._rng.uniform(-self.jitter, self.jitter)


class FluctuatingPoissonTraffic(TrafficGenerator):
    """Poisson traffic whose rate cycles through a list of phases.

    ``phases`` is a sequence of ``(rate, duration)`` pairs; the generator
    starts with the first phase at ``start_time`` and cycles forever.  This
    reproduces node A of the fluctuating-traffic experiment (alternating
    δ = 10 and δ = 100 for 100 s each) and the δ = 1 / δ = 10 alternation of
    the scalability study.
    """

    def __init__(
        self,
        sim: "Simulator",
        callback: GenerateCallback,
        phases: Sequence[tuple],
        start_time: float = 0.0,
        max_packets: Optional[int] = None,
        rng_name: str = "traffic",
    ) -> None:
        if not phases:
            raise ValueError("at least one phase is required")
        for rate, duration in phases:
            if rate <= 0 or duration <= 0:
                raise ValueError("phase rates and durations must be positive")
        super().__init__(sim, callback, start_time, max_packets, rng_name)
        self.phases = [(float(rate), float(duration)) for rate, duration in phases]
        self.cycle_duration = sum(duration for _, duration in self.phases)

    def current_rate(self, now: Optional[float] = None) -> float:
        """The generation rate in effect at time ``now``."""
        t = self.sim.now if now is None else now
        if t < self.start_time:
            return self.phases[0][0]
        offset = (t - self.start_time) % self.cycle_duration
        for rate, duration in self.phases:
            if offset < duration:
                return rate
            offset -= duration
        return self.phases[-1][0]

    def _next_interval(self) -> float:
        return self._rng.expovariate(self.current_rate())
