"""The discrete-event simulation engine.

The engine is intentionally small: a binary heap of scheduled callbacks,
a simulation clock and a handful of run-control methods.  Determinism is a
hard requirement for reproducing the paper's figures, therefore

* events scheduled for the same time are executed in scheduling order
  (a monotonically increasing sequence number breaks ties), and
* all randomness is drawn from named streams managed by
  :class:`repro.sim.rng.RngRegistry`, seeded from a single master seed.

Heap entries
------------
Every heap entry is a bare ``(time, seq, callback, arg)`` tuple.  Tuple
comparison runs entirely in C and, because sequence numbers are unique,
never looks past ``seq``, so the heap orders entries by exactly their
``(time, seq)`` key.

There is one scheduling API, :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at`: it pushes the callback and its (at most
one) argument as they are and returns nothing.  Events cannot be
cancelled.  A component that needs to stop a timer keeps an epoch
counter, passes the current epoch as the event's argument and bumps it in
``stop()``/``start()``; the stale event still fires once and its callback
returns at once because the epoch moved on.  Periodic processes, traffic
generators, TDMA/ALOHA slot clocks and MAC ACK timeouts (keyed by the
attempt number) all work this way.

The grid clock
--------------
QMA subslot ticks (:mod:`repro.core.mac`) have no heap entries of their
own: the nodes that started together form a subslot grid, which pushes
at most one entry per boundary and gives a turn only to the nodes with
work, in their fixed rank order.  So :meth:`Simulator.step` runs a whole
boundary, with any event keyed between two of its turns, and
``events_executed`` counts boundaries, not ticks: a boundary counts as
one event whether or not it has its own heap entry, except an idle one
leapt over.  A grid passes boundaries before both the heap's head and
:attr:`Simulator._bound`, the end of the :meth:`run_until` in progress,
without an entry: all of them when no node is due (a leap, which counts
none), and the quiet ones, where every due node sleeps, before the
earliest wake (each counted).  ``step()`` sets no bound, so it never
passes one.
:attr:`Simulator._grids` holds the grids whose first boundary is still to
come, which nodes starting at that instant join.  A QMA node sleeping
through QBackoff turns or startup observations stays due, so it changes
no count; a :meth:`run_until` cut short by :meth:`stop` wakes every
sleeper (:attr:`Simulator._wakers`) so that no reader finds its state
stale.

A grid with members always has a next boundary, so an unbounded run
(:meth:`Simulator.run`, or :meth:`Simulator.run_until` with an infinite
end) would never run dry.  Such a run *ends* once only idle boundaries
remain: a grid re-arming with no member due, under an infinite bound,
that finds every queued entry to be a boundary of a grid with no member
due stops the run as :meth:`Simulator.stop` would.  Nothing could happen
any more, so the clock stays at that boundary and the grids keep their
entries: a later :meth:`Simulator.run_until` carries on from there.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


#: ``math.inf`` as a module global: the hot-path time checks compare
#: against it without an attribute lookup.
_INF = math.inf

#: A heap entry: ``(time, seq, callback, arg)``; ``callback()`` runs when
#: ``arg`` is None, ``callback(arg)`` otherwise.
_HeapEntry = Tuple[float, int, Callable[..., Any], Any]


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all random streams obtained through :attr:`rng`.
    trace:
        When True, a :class:`TraceRecorder` collects trace records emitted by
        components via :meth:`record`.
    trace_limit:
        Optional bound on the number of retained trace records; once hit,
        further records are counted in ``tracer.dropped`` instead of stored
        (campaign sweeps pass a default bound so long runs cannot exhaust
        memory silently).  None keeps the recorder unbounded.
    """

    def __init__(
        self, seed: int = 0, trace: bool = False, trace_limit: Optional[int] = None
    ) -> None:
        self._now = 0.0
        self._queue: List[_HeapEntry] = []
        self._seq = itertools.count()
        #: QMA subslot grids still to take their first boundary, by start
        #: time and clock settings (see the module docstring).
        self._grids: Dict[Tuple, Any] = {}
        #: The end of the :meth:`run_until` in progress, up to which an idle
        #: grid may leap (-inf outside one: ``step()`` and ``run()`` never leap).
        self._bound = -_INF
        #: One callback per QMA grid that wakes its sleeping nodes, called
        #: when :meth:`stop` cuts a :meth:`run_until` short.
        self._wakers: List[Callable[[], None]] = []
        self._stopped = False
        self.rng = RngRegistry(seed)
        self.tracer: Optional[TraceRecorder] = (
            TraceRecorder(max_records=trace_limit) if trace else None
        )
        self.events_executed = 0

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[..., Any], arg: Any = None) -> None:
        """Call ``callback()`` (or ``callback(arg)`` when ``arg`` is not
        None) ``delay`` seconds from now.

        The event cannot be cancelled; a callback that may outlive its
        reason checks an epoch passed as ``arg`` (see the module docstring).
        """
        if not 0 <= delay < _INF:
            raise SimulationError(f"invalid event delay: {delay}")
        heapq.heappush(self._queue, (self._now + delay, next(self._seq), callback, arg))

    def schedule_at(self, time: float, callback: Callable[..., Any], arg: Any = None) -> None:
        """Absolute-time variant of :meth:`schedule`."""
        if not self._now <= time < _INF:
            raise self._time_error(time)
        heapq.heappush(self._queue, (time, next(self._seq), callback, arg))

    def _time_error(self, time: float) -> SimulationError:
        """The error for an event time failing ``now <= time < inf``.

        The schedulers write that test so that NaN fails it too: a NaN time
        would sort before every other entry and poison the clock.
        """
        if math.isnan(time) or math.isinf(time):
            return SimulationError(f"invalid event time: {time}")
        return SimulationError(f"cannot schedule into the past (time={time}, now={self._now})")

    # ------------------------------------------------------------------- run
    def step(self) -> bool:
        """Execute the next pending event (a grid boundary counts as one;
        see the module docstring).

        Returns True if an event was executed, False if the queue is empty.
        A :meth:`stop` from an earlier run no longer applies.
        """
        if not self._queue:
            return False
        self._stopped = False
        time, _, callback, arg = heapq.heappop(self._queue)
        self._now = time
        self.events_executed += 1
        if arg is None:
            callback()
        else:
            callback(arg)
        return True

    def run_until(self, end_time: float) -> None:
        """Run events until the clock reaches ``end_time``.

        The clock is advanced to exactly ``end_time`` when the run finishes,
        even if the last event fired earlier.  An unbounded run
        (``end_time`` infinite) ends as :meth:`run` does.
        """
        if not end_time >= self._now:
            raise SimulationError(
                f"end_time {end_time} lies in the past (now={self._now})"
            )
        if self._drain(end_time):
            self._now = max(self._now, end_time)

    def _drain(self, end_time: float) -> bool:
        """Fire the events up to ``end_time`` with it as the bound; False
        when the run stopped early, after waking every sleeper."""
        self._bound = end_time
        self._stopped = False
        try:
            self._drain_before(end_time, _INF)
        finally:
            self._bound = -_INF
        if not self._stopped:
            return True
        for wake in self._wakers:
            wake()
        return False

    def _drain_before(self, t_bound: float, seq_bound: float) -> None:
        """Fire every event keyed before ``(t_bound, seq_bound)``, in order,
        until the queue runs dry or :meth:`stop` is called.

        This is the simulation hot path, with local bindings throughout.
        It pops first and pushes back the one entry found past the bound,
        which costs one push per call instead of a ``queue[0]`` peek per
        event.  A grid's walk drains the events keyed before a turn's mark
        through it, so it must not touch the clock beyond the events it
        fires.
        """
        queue = self._queue
        heappop = heapq.heappop
        executed = 0
        try:
            while queue and not self._stopped:
                entry = heappop(queue)
                time, seq, callback, arg = entry
                if time > t_bound or (time == t_bound and seq >= seq_bound):
                    heapq.heappush(queue, entry)
                    break
                self._now = time
                executed += 1
                if arg is None:
                    callback()
                else:
                    callback(arg)
        finally:
            self.events_executed += executed

    def run(self) -> None:
        """Run until the event queue is exhausted, or only idle grid
        boundaries remain (see the module docstring); the clock stays at
        the last event."""
        self._drain(_INF)

    def stop(self) -> None:
        """Stop the current :meth:`run` / :meth:`run_until` after the current event."""
        self._stopped = True

    # ----------------------------------------------------------------- trace
    @property
    def tracing(self) -> bool:
        """True when a :class:`TraceRecorder` is attached.

        Components emitting hot-path traces guard on this so that building
        the record's field dictionary costs nothing when nobody listens.
        """
        return self.tracer is not None

    def record(self, category: str, **fields: Any) -> None:
        """Emit a trace record if tracing is enabled."""
        if self.tracer is not None:
            self.tracer.record(self._now, category, fields)

    # ----------------------------------------------------------------- misc
    def pending_events(self) -> int:
        """Number of entries still on the heap, including stale ones whose
        callbacks will return at once; a grid boundary counts once (see the
        module docstring)."""
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Simulator(now={self._now:.6f}, pending={self.pending_events()})"
