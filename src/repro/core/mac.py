"""The QMA MAC protocol (Sect. 4 of the paper).

Time is discretised into ``M`` subslots.  At the start of every subslot a
node with a non-empty queue selects an action — following its learned policy
with probability ``1 - ρ`` or uniformly at random with probability ``ρ``
(parameter-based exploration) — and executes it:

* ``QBackoff`` waits for the next subslot and is rewarded when a foreign
  frame is overheard during the wait (Eq. 6);
* ``QCCA`` performs a clear channel assessment and transmits on success
  (Eq. 7);
* ``QSend`` transmits immediately (Eq. 8).

A transmission can span several subslots (frame air time plus ACK wait);
during this time the node selects no further actions.  When the outcome of
the action is known, the Q-table is updated with Eq. 5 and the policy with
Eq. 3 (see :class:`repro.core.qtable.QTable`).

The MAC also implements the cautious-startup phase (Sect. 4.3).  On request
(:meth:`QmaMac.record_history`, made before the MAC starts) it records the
per-frame cumulative Q-value and the exploration probability over time,
which the evaluation figures 10-12 are built from; the convergence collector
asks for the MACs it reads, and a MAC nobody asked keeps both histories
empty.

A node whose next turns will all be QBackoff selections or cautious-startup
observations *sleeps* through them (:meth:`QmaMac._sleep`; README "Grid
clock" lists the wake bounds: a startup sleeper wakes at the turn after its
last observation at the latest) and replays them (:meth:`QmaMac._replay`,
one :meth:`QTable.apply_run` loop) at its wake or first thing when an
event it can observe arrives: an overheard or addressed frame, an enqueue,
an ACK starting on its radio, a restarted cautious startup, ``stop()``, a
``Simulator.stop()`` cutting a run short, or a read of its clock fields,
histories or policy.  ``qtable``, ``action_stats``, ``rho_history`` and
the stream are read after a ``run_until``, when no node sleeps.
"""

from __future__ import annotations

import heapq
import math
import os
import threading
from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import compress, islice, repeat, starmap
from operator import attrgetter, itemgetter, not_
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.actions import ALL_ACTIONS, QAction
from repro.core.config import QmaConfig
from repro.core.exploration import ExplorationStrategy, ParameterBasedExploration
from repro.core.neighbours import NeighbourQueueTracker
from repro.core.qtable import QTable
from repro.core.rewards import DEFAULT_REWARDS, RewardFunction
from repro.core.startup import CautiousStartup
from repro.mac.base import MacProtocol, TransactionResult
from repro.mac.gate import ActivityGate, AlwaysActiveGate
from repro.mac.registry import register_mac
from repro.phy.frames import Frame, FrameKind
from repro.phy.radio import RadioState

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.radio import Radio
    from repro.sim.engine import Simulator


# What the agent is currently waiting for (the pending slot's kind).  Plain
# ints rather than an enum: the kind is tested at every subslot tick.
PENDING_NONE = 0
PENDING_BACKOFF = 1       # QBackoff: evaluated at the next subslot boundary
PENDING_CCA_FAILED = 2    # QCCA with busy channel: backoff, evaluated next boundary
PENDING_TRANSMISSION = 3  # QCCA (idle) or QSend: evaluated when the outcome is known
PENDING_STARTUP = 4       # cautious-startup observation of one subslot

# Action codes (``QAction.value``) used on the per-decision path.
_BACKOFF = QAction.QBACKOFF.value
_CCA = QAction.QCCA.value
_SEND = QAction.QSEND.value
_ACTION_CODES = tuple(action.value for action in ALL_ACTIONS)
_TRANSMITTING = RadioState.TRANSMITTING
_first = itemgetter(0)
_rank, _wake = attrgetter("_rank"), attrgetter("_wake")
#: Boundaries a sleeper plans ahead at most: an event that wakes it early
#: wastes a plan of at most this many (see :meth:`QmaMac._sleep`).
_HORIZON = 256


class _Timeline:
    """The boundaries of one grid clock key ``(first boundary time,
    subslot duration, subslot count, gate or None)``, worked out once per
    process and shared by every grid with that key (README "Grid clock").

    ``times[i]`` and ``subslots[i]`` are the time and subslot of boundary
    ``i``, from ``(t0, 0)`` on.  :meth:`grow` extends both, under a lock, by
    the float arithmetic of one boundary at a time: the time advances by the
    duration and the subslot modulo the count, and a time the gate holds
    closed moves to the gate's next active time with subslot 0.  It writes
    a boundary's subslot before its time, so a reader that stays below
    ``len(times)`` never sees a time without its subslot."""

    __slots__ = ("times", "subslots", "duration", "num_subslots", "gate")

    def __init__(self, time: float, duration: float, num_subslots: int,
                 gate: Optional[ActivityGate]) -> None:
        self.times, self.subslots = array("d", (time,)), array("I", (0,))
        self.duration, self.num_subslots, self.gate = duration, num_subslots, gate

    @classmethod
    def of(cls, key: Tuple) -> "_Timeline":
        """The process's timeline for ``key``; the least recently used of
        more than :data:`_TIMELINES_KEPT` is dropped."""
        with _TIMELINE_LOCK:
            timeline = _TIMELINES.pop(key, None)
            if timeline is None:
                timeline = cls(*key)
                if len(_TIMELINES) >= _TIMELINES_KEPT:
                    del _TIMELINES[next(iter(_TIMELINES))]
            _TIMELINES[key] = timeline
            return timeline

    def grow(self, count: int) -> None:
        """Work out at least ``count`` boundaries, a chunk at a time."""
        with _TIMELINE_LOCK:
            times, subslots = self.times, self.subslots
            known = len(times)
            if known >= count:
                return
            del subslots[known:]  # left over by a fork or an error mid-grow
            duration, num_subslots, gate = self.duration, self.num_subslots, self.gate
            time, subslot = times[-1], subslots[-1]
            new_times, new_subslots = array("d"), array("I")
            for _ in range(max(count - known, _CHUNK)):
                time += duration
                subslot = (subslot + 1) % num_subslots
                if gate is not None and not gate.active(time):
                    time, subslot = gate.next_active_time(time), 0
                new_times.append(time)
                new_subslots.append(subslot)
            subslots.extend(new_subslots)
            times.extend(new_times)

    def first_at_or_after(self, time: float, start: int) -> int:
        """The index of the first boundary from ``start`` on at or after
        ``time`` (finite), worked out as far as needed."""
        times = self.times
        while True:
            index = bisect_left(times, time, start)
            if index < len(times):
                return index
            self.grow(index + 1)


#: Timelines kept per process: a campaign reuses one or two keys run after run.
_TIMELINES_KEPT = 8
#: Boundaries a timeline grows by at least.
_CHUNK = 1024
_TIMELINES: Dict[Tuple, _Timeline] = {}
_TIMELINE_LOCK = threading.Lock()


def _new_timeline_lock() -> None:
    """A forked child starts with a free lock (see ``os.register_at_fork``)."""
    global _TIMELINE_LOCK
    _TIMELINE_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_new_timeline_lock)


class _SubslotGrid:
    """The subslot clock of the QMA nodes that started together (README
    "Grid clock"): at most one heap entry per boundary, at which the
    members with work take their turns in rank order, the order of their
    ``start()`` seqs.  Its position is ``ticks``, the boundaries begun,
    on the shared :class:`_Timeline` of its key.  Each turn draws a mark,
    the seq its tick would have drawn on re-arming; the entry carries the
    first member's.  A sleeper (see :meth:`QmaMac._sleep`) stays due but
    takes no turn and draws no mark until its wake.  A boundary before the
    ``quiet`` mark, the earliest wake when every due member sleeps, with
    no event at its instant, is quiet: it draws the first member's mark,
    counts as one executed event and visits no member.  The re-arm passes
    the quiet boundaries before both the heap's head and the end of the
    ``run_until`` in progress without an entry; the others reach the heap
    and take :meth:`_boundary`'s quiet branch.  A member pass sets the
    mark, a walk leaves it 0, and a sleeper roused early or a member
    rejoining clears it.  With no member due, the grid leaps over the
    boundaries before the next event (see :meth:`_rearm`)."""

    def __init__(self, sim: "Simulator", key: Tuple, timeline: _Timeline) -> None:
        self.sim, self.key, self.timeline = sim, key, timeline
        #: The timeline's arrays, which grow in place.
        self.times, self.subslots = timeline.times, timeline.subslots
        #: All members, and those due at the next boundary and at this one,
        #: each in rank order; the ``(rank, seq)`` marks drawn for the next
        #: boundary and for this one.
        self.members, self.due, self.running = [], [], []  # List[QmaMac]
        self.marks, self.bounds = [], []  # List[Tuple[int, int]]
        #: Boundaries begun, the time of the next one (of this one during a
        #: boundary), the subslot of this one and the rank of the last turn
        #: taken at this boundary (inf between boundaries).
        self.ticks = self.subslot = 0
        self.time = key[0]
        self.cursor = math.inf
        #: The earliest wake among the due members when every one of them
        #: sleeps, else 0: the boundaries before it are quiet.
        self.quiet = 0

    @classmethod
    def join(cls, mac: "QmaMac", time: float) -> None:
        """Add ``mac`` to the grid whose first boundary is at ``time``: the
        nodes that share one share its gate object, not just an equal gate."""
        sim = mac.sim
        gate = mac.gate if mac._gated else None
        clock = (time, mac._subslot_duration, mac._num_subslots)
        key = (*clock, id(gate))
        grid = sim._grids.get(key)
        rank = next(sim._seq)
        if grid is None:
            grid = sim._grids[key] = cls(sim, key, _Timeline.of((*clock, gate)))
            heapq.heappush(sim._queue, (time, rank, grid._open, None))
            sim._wakers.append(grid._wake_all)
        grid.members.append(mac)
        grid.due.append(mac)
        grid.marks.append((rank, rank))
        mac._grid, mac._rank, mac._on_loop = grid, rank, True

    def leave(self, mac: "QmaMac") -> None:
        mac._catch_up()
        self.members.remove(mac)
        due = self.running if mac._rank > self.cursor else self.due
        if mac._on_loop and mac in due:
            due.remove(mac)
        mac._grid, mac._on_loop, mac._wake = None, False, 0

    def rejoin(self, mac: "QmaMac") -> None:
        """Put ``mac`` back on the loop, at this boundary if its turn is to come."""
        mac._catch_up()
        mac._on_loop, self.quiet = True, 0
        insort(self.running if mac._rank > self.cursor else self.due, mac, key=_rank)

    def _wake_all(self) -> None:
        """Wake every sleeper (after a run cut by ``Simulator.stop()``)."""
        for mac in self.members:
            if mac._wake:
                mac._rouse()

    def _open(self) -> None:
        """The first boundary: later starts at this instant form a new grid."""
        del self.sim._grids[self.key]
        self._boundary()

    def _boundary(self) -> None:
        """Heap callback: the due members take their turns, in rank order;
        a sleeper takes its turn only at its wake, caught up first.  A quiet
        boundary draws the first member's mark and visits no member."""
        members = self.members
        if not members:  # every member stopped
            return
        sim = self.sim
        ticks = self.ticks = self.ticks + 1
        subslot = self.subslot = self.subslots[ticks - 1]
        time = self.time
        queue = sim._queue
        crowded = queue and queue[0][0] == time  # an event may fall between two turns
        if ticks < self.quiet and not crowded:
            self.marks = [(members[0]._rank, next(sim._seq))]
            self._rearm()
            return
        running = self.running = self.due
        due = self.due = []
        self.bounds = self.marks
        marks = self.marks = []
        self.cursor = -1
        if crowded:
            self._walk()
            return
        first = members[0]
        if not running or running[0] is not first or first._wake not in (0, ticks):
            marks.append((first._rank, next(sim._seq)))
        for mac in running:
            wake = mac._wake
            if wake:
                if wake != ticks:
                    due.append(mac)
                    continue
                mac._rouse()
            self.cursor = mac._rank
            mac._on_subslot(subslot)
            if sim._stopped:
                self._walk()
                return
        self.quiet = min(map(_wake, due), default=0)
        self._rearm()

    def _walk(self) -> None:
        """Visit the members whose turn is still to come one by one, idle
        ones and sleepers included, each after the events keyed before the
        last mark at or before its rank (no other entry carries a mark's
        seq, and an idle member or a sleeper drew none).  A member that left
        the grid, before the walk or in those events, is skipped.  After a
        ``stop()`` the rest waits on one heap entry under the next member's
        key."""
        sim, time, members, bounds = self.sim, self.time, self.members, self.bounds
        self.quiet = 0
        # A grid re-armed by the nested drains must not leap: the turns
        # still to come may schedule events before the heap's head.
        bound, sim._bound = sim._bound, -math.inf
        for mac in members[bisect_right(members, self.cursor, key=_rank):]:
            if mac._grid is not self:  # it left the grid since the walk began
                continue
            key = bounds[bisect_right(bounds, mac._rank, key=_first) - 1][1]
            sim._drain_before(time, key)
            if sim._stopped:
                sim._bound = bound
                heapq.heappush(sim._queue, (time, key, self._walk, None))
                return
            if mac._grid is not self:  # it left the grid in those events
                continue
            if mac._wake == self.ticks:
                mac._rouse()
            self.cursor = mac._rank
            if mac._on_loop and not mac._wake:
                mac._on_subslot(self.subslot)
            else:  # events may have drawn seqs since the last mark
                if mac._wake:
                    self.due.append(mac)
                self.marks.append((mac._rank, next(sim._seq)))
        sim._bound = bound
        self._rearm()

    def _rearm(self) -> None:
        """Push the next boundary, keyed by its first mark, after passing
        the boundaries before both the heap's head and the end of the
        ``run_until`` in progress without an entry: one bisection of the
        timeline finds them.  With no member due, leap: pass them all as
        idle ones and key the first boundary after them by one fresh mark
        (no event can draw a seq between the marks of the boundaries
        passed).  With members due, pass only the quiet boundaries before
        the ``quiet`` mark: each draws its own mark and counts as one
        executed event, as its entry would have, and the last mark keys the
        entry of the next one."""
        self.cursor = math.inf
        members, marks, sim = self.members, self.marks, self.sim
        if not members:
            return
        if not marks:  # the first member stopped during its own turn
            marks.append((members[0]._rank, next(sim._seq)))
        queue, until, due = sim._queue, sim._bound, self.due
        if sim._stopped:
            until = -math.inf
        elif queue and queue[0][0] < until:
            until = queue[0][0]
        # The next boundary's index is ``ticks``; the one to push is the
        # first at or after ``until``, or at the latest the quiet mark's
        # while members are due.  No boundary lies at or after the end of an
        # unbounded ``run_until`` with nothing queued: that leaps nowhere.
        ticks, times = self.ticks, self.times
        if due:
            last = max(self.quiet - 1, ticks)
            if len(times) <= last:
                self.timeline.grow(last + 1)
            index = bisect_left(times, until, ticks, last)
        else:
            index = self.timeline.first_at_or_after(until if until < math.inf else -math.inf, ticks)
        passed = index - ticks
        if passed:
            self.ticks = index
            if due:
                sim.events_executed += passed
                seq = next(islice(sim._seq, passed - 1, None))
            else:
                seq = next(sim._seq)
            self.marks = marks = [(members[0]._rank, seq)]
        time = self.time = times[index]
        heapq.heappush(queue, (time, marks[0][1], self._boundary, None))
        if not due and sim._bound == math.inf and all(map(_idle_boundary, queue)):
            sim._stopped = True  # nothing can happen any more: an unbounded run ends


def _idle_boundary(entry: Tuple) -> bool:
    """Whether a heap entry is the boundary of a grid with no member due."""
    callback = entry[2]
    boundary = getattr(callback, "__func__", None) is _SubslotGrid._boundary
    return boundary and not callback.__self__.due


def _caught_up(name: str, doc: str) -> property:
    """A read-only view of a clock field that catches the node up first."""

    def get(mac: "QmaMac") -> object:
        mac._catch_up()
        return getattr(mac, name)

    return property(get, doc=doc)


@dataclass
class QmaActionStats:
    """How often each action was selected (and how often at random)."""

    #: Selections per action, indexed by the action code (``QAction.value``).
    counts: List[int] = field(default_factory=lambda: [0] * len(ALL_ACTIONS))
    random_selections: int = 0

    @property
    def selected(self) -> Dict[QAction, int]:
        """Selections per action."""
        return {action: self.counts[action.value] for action in ALL_ACTIONS}

    @property
    def greedy_selections(self) -> int:
        """Selections that followed the learned policy."""
        return self.total - self.random_selections

    @property
    def total(self) -> int:
        return sum(self.counts)


@register_mac("qma", config_cls=QmaConfig,
              description="Q-learning multiple access (the paper's protocol)")
class QmaMac(MacProtocol):
    """Q-learning-based multiple access."""

    name = "qma"

    def __init__(
        self,
        sim: "Simulator",
        radio: "Radio",
        config: Optional[QmaConfig] = None,
        exploration: Optional[ExplorationStrategy] = None,
        rewards: Optional[RewardFunction] = None,
        gate: Optional[ActivityGate] = None,
    ) -> None:
        self.config = config = config if config is not None else QmaConfig()
        super().__init__(
            sim,
            radio,
            queue_capacity=config.queue_capacity,
            max_frame_retries=config.max_frame_retries,
            gate=gate,
        )
        self.rewards = rewards if rewards is not None else DEFAULT_REWARDS
        self.exploration = (
            exploration
            if exploration is not None
            else ParameterBasedExploration(config.exploration_table)
        )
        #: The strategy's per-selection hook, None where it is the base
        #: class's empty one (only decaying strategies override it).
        self._notify_action = (
            None
            if type(self.exploration).notify_action is ExplorationStrategy.notify_action
            else self.exploration.notify_action
        )
        self.qtable = QTable(
            num_states=config.num_subslots,
            learning_rate=config.learning_rate,
            discount_factor=config.discount_factor,
            penalty=config.penalty,
            q_init=config.q_init,
        )
        self.startup = CautiousStartup(
            config.cautious_startup_subslots,
            cca_punishment=config.startup_cca_punishment,
            send_punishment=config.startup_send_punishment,
        )
        self.startup.on_restart = self._rejoin
        self.neighbours = NeighbourQueueTracker()
        self.action_stats = QmaActionStats()
        self._rng = sim.rng.stream(f"qma-{self.node_id}")

        # The config is frozen: read what the tick needs once.
        self._num_subslots = config.num_subslots
        self._subslot_duration = config.subslot_duration
        self._gated = type(self.gate) is not AlwaysActiveGate

        self._subslot = self._counter = self._frames_elapsed = 0
        #: The pending slot: the action selected last and not yet learned
        #: from.  One preallocated set of fields, rewritten per decision.
        #: Only a pending transmission reads ``_pend_action``, ``_pend_frame``
        #: and ``_pend_counter``, the tick counter of the decision that tells
        #: a stale CCA->transmit callback from the current one.
        self._pend_kind = PENDING_NONE
        self._pend_action = _BACKOFF
        self._pend_state = 0
        self._pend_counter = 0
        self._pend_frame: Optional[Frame] = None
        self._pend_overheard = False
        #: The subslot grid this node ticks on (None while stopped), its
        #: rank there, whether it takes turns, and, while it does not, the
        #: grid's boundary count its clock fields stand at.
        self._grid: Optional[_SubslotGrid] = None
        self._rank = self._synced_ticks = 0
        self._on_loop = False
        #: The grid tick a sleeper wakes at (0 while awake: the turns still
        #: to replay are the timeline's boundaries from ``_synced_ticks`` up
        #: to ``_wake - 1``), ρ of the last selection, and the probe with
        #: the draws the stream makes from selection ``_drawn_from`` on.
        self._wake = 0
        self._rho = 0.0
        self._probe = type(self._rng)(0)
        self._draws: List[float] = []
        self._drawn_from = self._drawn_choices = -1

        #: Whether the histories are recorded (see :meth:`record_history`).
        self._track_history = False
        self._q_history: List[Tuple[float, float]] = []
        #: (time, ρ) at every action selection; empty unless
        #: :meth:`record_history` was called before the MAC started.
        self.rho_history: List[Tuple[float, float]] = []

    def record_history(self) -> None:
        """Record ``q_history`` and ``rho_history`` from the start on.

        Called by their reader (the convergence collector) before the run;
        a MAC nobody asked keeps both empty and pays nothing for them.
        Asking once the MAC has started raises, so a history that misses
        its beginning cannot pass as a whole one.
        """
        if self._started:
            raise RuntimeError("record_history() must be called before the MAC starts")
        self._track_history = True

    # --------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start the subslot clock (aligned to the activity gate) on a grid."""
        super().start()
        now = self.sim.now
        start_time = max(self.gate.next_active_time(now), now)
        if not start_time < math.inf:
            raise self.sim._time_error(start_time)
        self.stop()
        _SubslotGrid.join(self, start_time)

    def stop(self) -> None:
        """Stop the subslot clock (used by tests and node shutdown)."""
        if self._grid is not None:
            self._grid.leave(self)

    def _rejoin(self) -> None:
        """Wake a sleeper, or put an idle node back on its grid's loop: an
        enqueue or a restarted cautious startup changes its next turns."""
        if self._wake:
            self._rouse()
        elif not self._on_loop and self._grid is not None:
            self._grid.rejoin(self)

    def _rouse(self) -> None:
        """Wake a sleeper: replay its skipped turns, then take real ones."""
        self._catch_up()
        self._wake = self._grid.quiet = 0

    _notify_enqueue = _rejoin

    # ------------------------------------------------------------ subslot clock
    def _catch_up(self) -> None:
        """Advance a node that takes no turns as its turns would have: a
        sleeper replays its skipped turns (:meth:`_replay`), an idle node
        off the loop its clock fields.  An idle node's Q-table cannot
        change, so every missed frame start of a recorded history samples
        the current cumulative Q-value."""
        grid = self._grid
        if grid is None or self._on_loop and not self._wake:
            return
        # Its turn at this boundary may still be to come.
        ticks, synced = grid.ticks - (self._rank > grid.cursor), self._synced_ticks
        if self._wake:
            self._replay(ticks - synced)
            return
        if ticks == synced:
            return
        subslots = grid.subslots[synced:ticks]
        frames = subslots.count(0)
        if self._track_history and frames:
            value = self.qtable.cumulative_policy_value()
            starts = compress(grid.times[synced:ticks], map(not_, subslots))
            self._q_history.extend(zip(starts, repeat(value)))
        self._subslot = subslots[-1]
        self._counter += ticks - synced
        self._frames_elapsed += frames
        self._synced_ticks = ticks

    current_subslot = _caught_up("_subslot", "Index of the subslot currently in progress.")
    subslot_ticks = _caught_up("_counter", "Subslot boundaries ticked since creation.")
    frames_elapsed = _caught_up("_frames_elapsed", "Frames begun since creation.")
    q_history = _caught_up(
        "_q_history",
        "(time, cumulative Q-value of the policy) at every frame start; empty "
        "unless :meth:`record_history` was called before the MAC started.",
    )

    def _on_subslot(self, subslot: int) -> None:
        """This node's turn at a subslot boundary, the simulator's inner loop:
        learn, select, re-arm.  The grid calls it at the node's first boundary
        and then only while the node has work (see :class:`_SubslotGrid`).
        A QBackoff's update, the select and the re-arm are inline; the
        Q-table, tracker expiry, sleep planning and the exploration strategy
        (three kinds) stay calls.  The strategy's ``notify_action`` hook is
        called only where its type overrides the base class's empty one."""
        self._subslot = subslot
        self._counter += 1
        if subslot == 0:
            self._frames_elapsed += 1
            if self._track_history:
                self._q_history.append((self.sim._now, self.qtable.cumulative_policy_value()))

        # 1. Learn from a pending non-transmission: its outcome is known now.
        kind = self._pend_kind
        if kind == PENDING_BACKOFF:
            rewards = self.rewards  # Eq. 6
            reward = rewards.backoff_overheard if self._pend_overheard else rewards.backoff_idle
            self.qtable.apply(self._pend_state, _BACKOFF, reward, subslot)
            kind = self._pend_kind = PENDING_NONE
        elif kind and kind != PENDING_TRANSMISSION:
            self._evaluate_boundary_action(kind)
            kind = self._pend_kind = PENDING_NONE

        # 2. Select the next action (or observe, during cautious startup), but
        # not while the radio is busy (e.g. sending an ACK for a late frame).
        if not kind and self.radio.state is not _TRANSMITTING:
            frames = self.queue._frames
            if not self.startup._finished:
                self._begin_startup_observation()
            elif frames:
                # ρ from the local queue level minus the neighbours' average (Fig. 4).
                now = self.sim._now
                neighbours = self.neighbours
                neighbours._expire(now)
                known = len(neighbours._levels)
                average = neighbours._level_sum / known if known else 0.0
                rho = self.exploration.probability(len(frames), average, now)
                if self._notify_action is not None:
                    self._notify_action(now)
                self._rho = rho
                if self._track_history:
                    self.rho_history.append((now, rho))
                rng = self._rng
                stats = self.action_stats
                if rng.random() < rho:
                    code = rng.choice(_ACTION_CODES)
                    stats.random_selections += 1
                else:
                    code = self.qtable.policy_code(subslot)
                stats.counts[code] += 1
                if code == _BACKOFF:
                    self._pend_kind, self._pend_state, self._pend_overheard = (
                        PENDING_BACKOFF, subslot, False
                    )
                else:
                    self._execute(code, subslot)

        # 3. Re-arm: draw this turn's mark, and stay on the loop only while
        # there is work that is more than QBackoff turns or startup
        # observations (see :meth:`_sleep`).
        grid = self._grid
        if grid is None:  # stopped during its own turn
            return
        grid.marks.append((self._rank, next(self.sim._seq)))
        kind = self._pend_kind
        if (kind == PENDING_BACKOFF and self._notify_action is None) or kind == PENDING_STARTUP:
            self._sleep(grid)
        if kind or self.queue._frames or not self.startup._finished:
            grid.due.append(self)
        else:
            self._on_loop = False
            self._synced_ticks = grid.ticks

    def _sleep(self, grid: _SubslotGrid) -> None:
        """After a QBackoff turn or a startup observation, plan to skip the
        turns up to the wake, at most the horizon ahead and at the latest
        the last boundary of the ``run_until`` in progress (README "Grid
        clock").  An observer wakes at the turn after its last observation;
        a backing-off node at the first boundary whose policy is not
        QBackoff, whose ``random()`` (from the probe) is below ρ or whose
        time expires a neighbour level.  Only with the radio idle and a
        bound set (``step()`` sets none).  The plan bisects and slices the
        grid's timeline: its turn ``k`` is the boundary at index
        ``ticks + k - 1``, and the wake's tick is ``ticks + wake``."""
        bound = self.sim._bound
        if not bound > grid.time or self.radio.state is _TRANSMITTING:
            return
        ticks, times = grid.ticks, grid.times
        end = ticks + _HORIZON
        if len(times) < end:
            grid.timeline.grow(end)
        wake = bisect_right(times, bound, ticks, end) - ticks
        if wake < 2:
            return
        if self._pend_kind == PENDING_STARTUP:
            startup = self.startup
            wake = min(wake, startup.duration_subslots - startup._elapsed + 1)
        else:
            policy = self.qtable._policy
            if policy.count(_BACKOFF) < len(policy):
                for turn, subslot in enumerate(grid.subslots[ticks:ticks + wake - 1], 1):
                    if policy[subslot] != _BACKOFF:
                        wake = turn
                        break
            oldest, max_age = self.neighbours._oldest_bound, self.neighbours.max_age
            if wake > 1 and max_age is not None and oldest < math.inf:
                wake = 1 - ticks + bisect_right(  # `_expire`'s test, monotone in time
                    times, oldest, ticks, ticks + wake - 1, key=lambda time: time - max_age
                )
            rho = self._rho
            if wake > 1 and rho > 0.0:
                draws = self._predraw(wake - 1)
                for turn in range(wake - 1):
                    if draws[turn] < rho:
                        wake = turn + 1
                        break
        if wake > 1:
            self._wake = ticks + wake
            self._synced_ticks = ticks

    def _predraw(self, count: int) -> List[float]:
        """The next ``count`` values of the node's ``random()``, drawn from
        its probe.  A selection draws one ``random()`` and, when it
        explores, a ``choice()`` the probe does not follow: only then is the
        probe copied from the stream again."""
        stats = self.action_stats
        total = sum(stats.counts)
        draws, probe = self._draws, self._probe
        if stats.random_selections != self._drawn_choices:
            probe.setstate(self._rng.getstate())
            draws.clear()
            self._drawn_from, self._drawn_choices = total, stats.random_selections
        used = total - self._drawn_from
        for _ in range(used - len(draws)):  # the stream drew past the probe
            probe.random()
        del draws[:used]
        self._drawn_from = total
        if len(draws) < count:
            draws.extend(starmap(probe.random, repeat((), count - len(draws))))
        return draws

    def _replay(self, count: int) -> None:
        """Take the next ``count`` turns a sleeper skipped (at most those
        before its wake: the grid timeline's boundaries from
        ``_synced_ticks`` on) as :meth:`_on_subslot` would: learn from an
        idle QBackoff (one :meth:`QTable.apply_run`, split only at the frame
        starts a recorded ``q_history`` samples), then either observe
        (cautious startup) or draw ``random()`` (above ρ, as planned) and
        select QBackoff."""
        grid, first = self._grid, self._synced_ticks
        end = min(first + count, self._wake - 1)
        if end <= first:
            return
        count = end - first
        subslots = grid.subslots[first:end]
        qtable, state = self.qtable, self._pend_state
        observing = self._pend_kind == PENDING_STARTUP
        reward = self.rewards.backoff(False) if observing else self.rewards.backoff_idle
        frames = subslots.count(0)
        if self._track_history and frames:
            states, start = [state, *subslots], 0
            for turn in compress(range(count), map(not_, subslots)):
                qtable.apply_run(states[start], _BACKOFF, reward, subslots[start:turn])
                self._q_history.append((grid.times[first + turn], qtable.cumulative_policy_value()))
                start = turn
            qtable.apply_run(states[start], _BACKOFF, reward, subslots[start:])
        else:
            qtable.apply_run(state, _BACKOFF, reward, subslots)
        if observing:
            startup = self.startup
            startup._elapsed += count
            startup._finished = startup._elapsed >= startup.duration_subslots
        else:
            rho = self._rho
            if min(starmap(self._rng.random, repeat((), count))) < rho:
                raise RuntimeError("a replayed QBackoff turn drew an exploration")
            if self._track_history:
                self.rho_history.extend(zip(grid.times[first:end], repeat(rho)))
            self.action_stats.counts[_BACKOFF] += count
        self._pend_state = self._subslot = subslots[-1]
        self._counter += count
        self._frames_elapsed += frames
        self._synced_ticks += count

    # ------------------------------------------------------------ action choice
    def _pend(self, kind: int, state: int) -> None:
        """Fill the pending slot for a decision evaluated at a boundary."""
        self._pend_kind, self._pend_state, self._pend_overheard = kind, state, False

    def _pend_transmission(self, code: int, state: int, frame: Frame) -> None:
        """Fill the pending slot for a transmission decided at this tick."""
        self._pend_kind, self._pend_state = PENDING_TRANSMISSION, state
        self._pend_action, self._pend_counter, self._pend_frame = code, self._counter, frame

    def _execute(self, code: int, state: int) -> None:
        """Carry out a selected QCCA or QSend (both touch the channel)."""
        frame = self.queue.peek()
        if frame is None:  # defensive: queue drained between check and execution
            self._pend(PENDING_BACKOFF, state)
            return
        if code == _CCA:
            if self._cca():
                self._pend_transmission(_CCA, state, frame)
                delay = self.phy.cca_duration + self.phy.turnaround_time
                self.sim.schedule(delay, self._transmit_pending, self._counter)
            else:
                self._pend(PENDING_CCA_FAILED, state)
            return
        # QSend: transmit immediately, without assessing the channel.
        if self.radio.transmitting:
            # The radio is busy (e.g. finishing an ACK); defer to the next subslot.
            self._pend(PENDING_BACKOFF, state)
            return
        self._pend_transmission(_SEND, state, frame)
        self._begin_transmission(frame)

    def _transmit_pending(self, counter: int) -> None:
        # Stale unless the transmission decided at tick ``counter`` is
        # still the pending action.
        if self._pend_kind == PENDING_TRANSMISSION and self._pend_counter == counter:
            if not self.radio.transmitting:
                self._begin_transmission(self._pend_frame)

    # ------------------------------------------------------- cautious startup
    def _begin_startup_observation(self) -> None:
        self._pend(PENDING_STARTUP, self._subslot)
        self.startup.tick()

    # ------------------------------------------------------------- evaluation
    def _evaluate_boundary_action(self, kind: int) -> None:
        """Learn from a failed CCA or a startup observation (not a QBackoff)."""
        state, next_state, apply = self._pend_state, self._subslot, self.qtable.apply
        if kind == PENDING_CCA_FAILED:
            apply(state, _CCA, self.rewards.cca(cca_success=False), next_state)
            return
        # PENDING_STARTUP: rewarded as QBackoff.
        overheard = self._pend_overheard
        apply(state, _BACKOFF, self.rewards.backoff(overheard), next_state)
        if overheard:
            # Bias the table against subslots already used by other nodes.
            apply(state, _CCA, self.startup.cca_punishment, next_state)
            apply(state, _SEND, self.startup.send_punishment, next_state)

    def _transaction_complete(self, frame: Frame, result: TransactionResult) -> None:
        if self._pend_kind != PENDING_TRANSMISSION:
            # A transaction that QMA is not aware of (should not happen); ignore.
            return
        success = result is TransactionResult.SUCCESS
        code = self._pend_action
        if code == _SEND:
            reward = self.rewards.send(success)
        else:
            reward = self.rewards.cca(cca_success=True, tx_success=success)
        self.qtable.apply(self._pend_state, code, reward, self._subslot)
        self._pend_kind = PENDING_NONE
        self._pend_frame = None

        if success:
            self._finish_frame(frame, success=True)
            return
        frame.retries += 1
        if frame.retries > self.max_frame_retries:
            self.stats.dropped_retries += 1
            self._finish_frame(frame, success=False)
        # Otherwise the frame stays at the head of the queue and will be
        # retransmitted in a (learned) later subslot — QMA never drops a
        # packet because of backoffs, only after max_frame_retries failures.

    # -------------------------------------------------------------- overhearing
    def _on_overheard(self, frame: Frame) -> None:
        """Channel activity, overheard or addressed to this node."""
        if self._wake:  # a sleeper catches up first: the frame changes its next turns
            self._rouse()
        kind = self._pend_kind
        if kind == PENDING_BACKOFF or kind == PENDING_STARTUP:
            self._pend_overheard = True
        if frame.kind is not FrameKind.ACK:
            self.neighbours.observe(frame.src, frame.queue_level, self.sim.now)

    _on_frame_for_us = _on_overheard

    def _transmit_ack(self, ack: Frame) -> None:
        # The only transmission a sleeper can start: its turns see the radio busy.
        if self._wake:
            self._rouse()
        super()._transmit_ack(ack)

    # -------------------------------------------------------------- inspection
    def policy_snapshot(self) -> List[QAction]:
        """Copy of the current policy (one action per subslot)."""
        self._catch_up()
        return self.qtable.policy_snapshot()

    def transmission_subslots(self) -> List[int]:
        """Subslots in which the current policy transmits (QCCA or QSend)."""
        self._catch_up()
        return self.qtable.transmission_subslots()
