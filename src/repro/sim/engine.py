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
never looks past ``seq``, so the heap orders entries by exactly the
``(time, seq)`` key that ``Event.__lt__`` compares.

The two scheduling APIs differ only in whether a handle is returned.
:meth:`Simulator.schedule_fast` / :meth:`Simulator.schedule_at_fast` push
the callback and its (at most one) argument as they are: no allocation
beyond the tuple, no handle.  The MAC/PHY inner loops (subslot ticks,
CCA-to-transmit delays, ACK transmissions, channel end-of-transmission)
never cancel their events and use this path.  :meth:`Simulator.schedule`
/ :meth:`Simulator.schedule_at` accept arbitrary ``*args``/``**kwargs``
and return a cancellable :class:`Event`, pushed as ``(time, seq, None,
event)``.  Both paths draw from one sequence counter, so mixing them keeps
the deterministic ``(time, seq)`` execution order.

Lazily-cancelled events (ACK timeouts resolved by an ACK, stopped tick
clocks) stay on the heap until popped; only ``None``-callback entries can
be cancelled, so only they are checked.  The engine counts them — which
also makes :meth:`Simulator.pending_events` a subtraction — and compacts
the heap in place once they outnumber half of the queue, so long runs with
many cancels do not drag a tail of dead entries through every sift.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


#: Shared empty kwargs for events scheduled without keyword arguments —
#: the dictionary is only ever ``**``-unpacked, never handed out or
#: mutated, so one instance serves every event.
_NO_KWARGS: dict = {}

#: ``math.inf`` as a module global: the hot-path time checks compare
#: against it without an attribute lookup.
_INF = math.inf

#: A heap entry: ``(time, seq, callback, arg)``; ``callback`` is None for
#: a cancellable :class:`Event`, which then sits in ``arg``.
_HeapEntry = Tuple[float, int, Optional[Callable[..., Any]], Any]


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at` and can be cancelled as long as they have
    not fired yet.  Cancellation is lazy: the event stays on the heap but is
    skipped when popped (the simulator counts such entries and periodically
    compacts the heap).
    """

    __slots__ = ("time", "seq", "callback", "args", "kwargs", "cancelled", "fired", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.fired = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling a fired event is a no-op."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._note_cancel()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and neither fired nor cancelled."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.6f}, seq={self.seq}, {name}, {state})"


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

    #: Compaction kicks in only beyond this many lazily-cancelled entries
    #: (small queues never pay for a rebuild).
    COMPACT_MIN_CANCELLED = 64

    def __init__(
        self, seed: int = 0, trace: bool = False, trace_limit: Optional[int] = None
    ) -> None:
        self._now = 0.0
        self._queue: List[_HeapEntry] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self._lazy_cancelled = 0  # cancelled entries still on the heap
        self.rng = RngRegistry(seed)
        self.tracer: Optional[TraceRecorder] = (
            TraceRecorder(max_records=trace_limit) if trace else None
        )
        self._trace_hooks: List[Callable[[float, str, dict], None]] = []
        self.events_executed = 0

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``callback(*args, **kwargs)`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, **kwargs)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        if not self._now <= time < _INF:
            raise self._time_error(time)
        event = Event(time, next(self._seq), callback, args, kwargs or _NO_KWARGS, self)
        heapq.heappush(self._queue, (time, event.seq, None, event))
        return event

    def schedule_fast(self, delay: float, callback: Callable[..., Any], arg: Any = None) -> None:
        """Fire-and-forget scheduling (hot-path variant).

        Calls ``callback()`` (or ``callback(arg)`` when ``arg`` is not None)
        ``delay`` seconds from now.  Unlike :meth:`schedule` no handle is
        returned, so the event cannot be cancelled — use it only for events
        that always run to completion (the callback itself may no-op).
        ``arg`` must not rely on ``None`` as a payload; use :meth:`schedule`
        for that.
        """
        if not 0 <= delay < _INF:
            raise SimulationError(f"invalid event delay: {delay}")
        heapq.heappush(self._queue, (self._now + delay, next(self._seq), callback, arg))

    def schedule_at_fast(self, time: float, callback: Callable[..., Any], arg: Any = None) -> None:
        """Absolute-time variant of :meth:`schedule_fast`."""
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

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        event.cancel()

    # ----------------------------------------------------------- maintenance
    def _note_cancel(self) -> None:
        """Book-keeping for a lazy cancel; compacts the heap when dead
        entries outnumber half of it.

        Compaction mutates the queue *in place* (slice assignment), so the
        local bindings held by an active :meth:`_drain_before` loop stay
        valid.
        """
        self._lazy_cancelled += 1
        queue = self._queue
        if (
            self._lazy_cancelled > self.COMPACT_MIN_CANCELLED
            and self._lazy_cancelled * 2 > len(queue)
        ):
            queue[:] = [
                entry for entry in queue if entry[2] is not None or not entry[3].cancelled
            ]
            heapq.heapify(queue)
            self._lazy_cancelled = 0

    # ------------------------------------------------------------------- run
    def step(self) -> bool:
        """Execute the next pending event.

        Returns True if an event was executed, False if the queue is empty.
        """
        queue = self._queue
        while queue:
            time, _, callback, arg = heapq.heappop(queue)
            if callback is None:
                if arg.cancelled:
                    self._lazy_cancelled -= 1
                    continue
                self._now = time
                self.events_executed += 1
                arg.fired = True
                arg.callback(*arg.args, **arg.kwargs)
            else:
                self._now = time
                self.events_executed += 1
                if arg is None:
                    callback()
                else:
                    callback(arg)
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run events until the clock reaches ``end_time``.

        The clock is advanced to exactly ``end_time`` when the run finishes,
        even if the last event fired earlier.
        """
        if not end_time >= self._now:
            raise SimulationError(
                f"end_time {end_time} lies in the past (now={self._now})"
            )
        self._running = True
        self._stopped = False
        try:
            self._drain_before(end_time, _INF)
        finally:
            self._running = False
        if not self._stopped:
            self._now = max(self._now, end_time)

    def _drain_before(self, t_bound: float, seq_bound: float) -> None:
        """Fire every event keyed before ``(t_bound, seq_bound)``, in order,
        until the queue runs dry or :meth:`stop` is called.

        This is the simulation hot path, with local bindings throughout.
        It pops first and pushes back the one entry found past the bound,
        which costs one push per call instead of a ``queue[0]`` peek per
        event.  The seed-batch kernel drains each lane up to a subslot
        tick's key through it, so it must not touch the clock beyond the
        events it fires.
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
                if callback is None:
                    if arg.cancelled:
                        self._lazy_cancelled -= 1
                        continue
                    self._now = time
                    executed += 1
                    arg.fired = True
                    arg.callback(*arg.args, **arg.kwargs)
                else:
                    self._now = time
                    executed += 1
                    if arg is None:
                        callback()
                    else:
                        callback(arg)
        finally:
            self.events_executed += executed

    def _next_key(self) -> Optional[Tuple[float, int]]:
        """The ``(time, seq)`` key of the next live event (None if none);
        cancelled entries at the head of the heap are dropped on the way."""
        queue = self._queue
        while queue:
            time, seq, callback, arg = queue[0]
            if callback is not None or not arg.cancelled:
                return time, seq
            heapq.heappop(queue)
            self._lazy_cancelled -= 1
        return None

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue is exhausted (or ``max_events`` fired)."""
        self._running = True
        self._stopped = False
        executed = 0
        try:
            while not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                if not self.step():
                    break
                executed += 1
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop the current :meth:`run` / :meth:`run_until` after the current event."""
        self._stopped = True

    # ----------------------------------------------------------------- trace
    @property
    def tracing(self) -> bool:
        """True when trace records are observed (recorder or hooks attached).

        Components emitting hot-path traces guard on this so that building
        the record's field dictionary costs nothing when nobody listens.
        """
        return self.tracer is not None or bool(self._trace_hooks)

    def add_trace_hook(self, hook: Callable[[float, str, dict], None]) -> None:
        """Subscribe a typed hook called as ``hook(time, category, fields)``
        for every trace record emitted via :meth:`record`.

        Hooks fire regardless of whether a :class:`TraceRecorder` is
        attached, so metric collectors can observe trace events without the
        memory cost of retaining them.
        """
        self._trace_hooks.append(hook)

    def record(self, category: str, **fields: Any) -> None:
        """Emit a trace record if tracing is enabled; notify trace hooks."""
        if self.tracer is not None:
            self.tracer.record(self._now, category, fields)
        if self._trace_hooks:
            for hook in self._trace_hooks:
                hook(self._now, category, fields)

    # ----------------------------------------------------------------- misc
    def pending_events(self) -> int:
        """Number of events still scheduled (excluding lazily cancelled ones).

        O(1): every heap entry is pending unless counted as lazily cancelled.
        """
        return len(self._queue) - self._lazy_cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Simulator(now={self._now:.6f}, pending={self.pending_events()})"
