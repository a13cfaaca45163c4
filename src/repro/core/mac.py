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

The MAC also implements the cautious-startup phase (Sect. 4.3) and records
the per-frame cumulative Q-value and the exploration probability over time,
which the evaluation figures 10-15 are built from.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
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


def _run_tick_bucket(ticks: List[Tuple[int, "QmaMac", int]]) -> None:
    """Heap callback of a tick bucket: the QMA ticks due at one instant.

    The engine has popped the bucket's one heap entry, keyed by its first
    tick's ``(time, seq)``, and set the clock.  The ticks run in seq order,
    and before each later tick every heap event keyed before it is drained,
    so events fire exactly as if each tick had its own heap entry.  After a
    :meth:`~repro.sim.engine.Simulator.stop`, the remaining ticks go back on
    the heap as a bucket of their own, keyed by the next tick.
    """
    members = iter(ticks)
    seq, mac, epoch = next(members)
    sim = mac.sim
    time = sim._now
    # Ticks due now from here on (a restart) open a bucket of their own.
    sim._tick_buckets.pop(time, None)
    queue = sim._queue
    # Every tick here drew its seq before the bucket fired, so only an event
    # already due now can be keyed between two of them.
    interleave = bool(queue) and queue[0][0] == time
    sim.events_executed += len(ticks) - 1
    mac._on_subslot(epoch)
    for seq, mac, epoch in members:
        if interleave:
            sim._drain_before(time, seq)
        if sim._stopped:
            rest = [(seq, mac, epoch), *members]
            sim.events_executed -= len(rest)
            heapq.heappush(queue, (time, seq, _run_tick_bucket, rest))
            return
        mac._on_subslot(epoch)


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
        self.neighbours = NeighbourQueueTracker()
        self.action_stats = QmaActionStats()
        self._rng = sim.rng.stream(f"qma-{self.node_id}")

        # The config is frozen: read what the tick needs once.
        self._num_subslots = config.num_subslots
        self._subslot_duration = config.subslot_duration
        self._track_history = config.track_history
        self._gated = type(self.gate) is not AlwaysActiveGate

        self._subslot = 0
        self._next_subslot = 0
        self._counter = 0
        self.frames_elapsed = 0
        #: The pending slot: the action selected last and not yet learned
        #: from.  One preallocated set of fields, rewritten per decision;
        #: ``_pend_counter`` is the tick counter of the decision and tells a
        #: stale CCA->transmit callback from the current one.
        self._pend_kind = PENDING_NONE
        self._pend_action = _BACKOFF
        self._pend_state = 0
        self._pend_counter = 0
        self._pend_frame: Optional[Frame] = None
        self._pend_overheard = False
        #: Tick-chain epoch: ticks carry the epoch they were scheduled in
        #: and no-op once it moves on, so stop()/start() cannot leave a
        #: stale chain running.  This is the engine's one way to stop a
        #: timer (events have no cancel handle; see repro.sim.engine).
        self._tick_epoch = 0

        #: (time, cumulative Q-value of the policy) recorded at every frame boundary
        self.q_history: List[Tuple[float, float]] = []
        #: (time, ρ) recorded at every action selection
        self.rho_history: List[Tuple[float, float]] = []

    # --------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start the subslot clock (aligned to the activity gate)."""
        super().start()
        now = self.sim.now
        start_time = max(self.gate.next_active_time(now), now)
        if not start_time < math.inf:
            raise self.sim._time_error(start_time)
        self._next_subslot = 0
        self._tick_epoch += 1
        self._arm_tick(start_time)

    def stop(self) -> None:
        """Stop the subslot clock (used by tests and node shutdown).

        Engine events cannot be cancelled; the pending tick stays in its
        bucket, fires once more and no-ops on the stale epoch, the engine's
        common idiom for stopping a timer.
        """
        self._tick_epoch += 1

    def _notify_enqueue(self) -> None:
        # Action selection happens only at subslot boundaries.
        pass

    # ------------------------------------------------------------ subslot clock
    @property
    def current_subslot(self) -> int:
        """Index of the subslot currently in progress."""
        return self._subslot

    def _on_subslot(self, epoch: int) -> None:
        """One subslot boundary: learn, then select, then re-arm the clock.

        Most ticks are idle: nothing pending, cautious startup over, queue
        empty.  An idle tick only advances its clock fields and re-arms.
        It is still a tick of its own, though, with its own sequence
        number drawn where a busy tick draws it; only its heap entry is
        shared (:func:`_run_tick_bucket`).  Skipping or re-arming idle
        ticks lazily would break the ``(time, seq)`` event order:

        * nodes tick on one shared subslot grid: in the hidden-node
          scenario (seed 1) every one of the 11,426 distinct tick times is
          shared by more than one node, so same-time ticks are ordered only
          by their sequence numbers;
        * that order decides same-subslot outcomes — a QSend started by an
          earlier tick makes a later tick's QCCA fail (Table 4 semantics);
        * an idle tick re-armed on enqueue would draw a later sequence
          number than its peers' ticks and reorder them.
        """
        if epoch != self._tick_epoch:
            return
        subslot = self._subslot = self._next_subslot
        self._counter += 1
        if subslot == 0:
            self.frames_elapsed += 1
            if self._track_history:
                self.q_history.append((self.sim.now, self.qtable.cumulative_policy_value()))

        kind = self._pend_kind
        # The fields behind ``queue.empty`` and ``startup.active``: every
        # tick reads them.
        if kind or self.queue._frames or not self.startup._finished:
            # 1. Evaluate an action whose outcome becomes known at a subslot
            #    boundary (everything but a transmission).
            if kind and kind != PENDING_TRANSMISSION:
                self._evaluate_boundary_action(kind)
                kind = self._pend_kind = PENDING_NONE

            # 2. Select the next action (or observe, during cautious
            # startup).  No action is selected while the radio is busy (e.g.
            # transmitting an ACK for a frame received just before the
            # subslot boundary).
            if not kind:
                if self.startup.active:
                    if not self.radio.transmitting:
                        self._begin_startup_observation()
                elif not self.queue.empty and not self.radio.transmitting:
                    self._select_and_execute()

        # 3. Schedule the next subslot boundary.
        self._schedule_next_tick()

    def _schedule_next_tick(self) -> None:
        sim = self.sim
        next_time = sim._now + self._subslot_duration
        next_index = self._subslot + 1
        if next_index == self._num_subslots:
            next_index = 0
        if self._gated and not self.gate.active(next_time):
            next_time = self.gate.next_active_time(next_time)
            next_index = 0
        self._next_subslot = next_index
        # _arm_tick(next_time), inlined: this runs at every tick.
        seq = next(sim._seq)
        bucket = sim._tick_buckets.get(next_time)
        if bucket is None:
            bucket = sim._tick_buckets[next_time] = []
            heapq.heappush(sim._queue, (next_time, seq, _run_tick_bucket, bucket))
        bucket.append((seq, self, self._tick_epoch))

    def _arm_tick(self, time: float) -> None:
        """Put this node's next tick into the bucket of ticks due at ``time``.

        The tick draws its sequence number here, as a heap event would; the
        first tick due at ``time`` opens the bucket and pushes its one heap
        entry under that tick's key.
        """
        sim = self.sim
        seq = next(sim._seq)
        bucket = sim._tick_buckets.get(time)
        if bucket is None:
            bucket = sim._tick_buckets[time] = []
            heapq.heappush(sim._queue, (time, seq, _run_tick_bucket, bucket))
        bucket.append((seq, self, self._tick_epoch))

    # ------------------------------------------------------------ action choice
    def _select_and_execute(self) -> None:
        now = self.sim.now
        state = self._subslot
        exploration = self.exploration
        rho = exploration.probability(
            self.queue.level, self.neighbours.average_level(now), now
        )
        exploration.notify_action(now)
        if self._track_history:
            self.rho_history.append((now, rho))
        rng = self._rng
        stats = self.action_stats
        if rng.random() < rho:
            code = rng.choice(_ACTION_CODES)
            stats.random_selections += 1
        else:
            code = self.qtable.policy_code(state)
        stats.counts[code] += 1
        if code == _BACKOFF:
            self._pend(PENDING_BACKOFF, _BACKOFF, state)
        else:
            self._execute(code, state)

    def _pend(self, kind: int, code: int, state: int, frame: Optional[Frame] = None) -> None:
        """Fill the pending slot for a decision taken at this tick."""
        self._pend_kind = kind
        self._pend_action = code
        self._pend_state = state
        self._pend_counter = self._counter
        self._pend_frame = frame
        self._pend_overheard = False

    def _execute(self, code: int, state: int) -> None:
        """Carry out a selected QCCA or QSend (both touch the channel)."""
        frame = self.queue.peek()
        if frame is None:  # defensive: queue drained between check and execution
            self._pend(PENDING_BACKOFF, _BACKOFF, state)
            return
        if code == _CCA:
            if self._cca():
                self._pend(PENDING_TRANSMISSION, _CCA, state, frame)
                delay = self.phy.cca_duration + self.phy.turnaround_time
                self.sim.schedule(delay, self._transmit_pending, self._counter)
            else:
                self._pend(PENDING_CCA_FAILED, _CCA, state)
            return
        # QSend: transmit immediately, without assessing the channel.
        if self.radio.transmitting:
            # The radio is busy (e.g. finishing an ACK); defer to the next subslot.
            self._pend(PENDING_BACKOFF, _BACKOFF, state)
            return
        self._pend(PENDING_TRANSMISSION, _SEND, state, frame)
        self._begin_transmission(frame)

    def _transmit_pending(self, counter: int) -> None:
        # Stale unless the transmission decided at tick ``counter`` is
        # still the pending action.
        if self._pend_kind != PENDING_TRANSMISSION or self._pend_counter != counter:
            return
        if self.radio.transmitting:
            return
        self._begin_transmission(self._pend_frame)

    # ------------------------------------------------------- cautious startup
    def _begin_startup_observation(self) -> None:
        self._pend(PENDING_STARTUP, _BACKOFF, self._subslot)
        self.startup.tick()

    # ------------------------------------------------------------- evaluation
    def _evaluate_boundary_action(self, kind: int) -> None:
        next_state = self._subslot
        state = self._pend_state
        apply = self.qtable.apply
        if kind == PENDING_CCA_FAILED:
            apply(state, _CCA, self.rewards.cca(cca_success=False), next_state)
            return
        # PENDING_BACKOFF or PENDING_STARTUP: both rewarded as QBackoff.
        overheard = self._pend_overheard
        apply(state, _BACKOFF, self.rewards.backoff(overheard), next_state)
        if kind == PENDING_STARTUP and overheard:
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
    def _register_channel_activity(self, frame: Frame) -> None:
        kind = self._pend_kind
        if kind == PENDING_BACKOFF or kind == PENDING_STARTUP:
            self._pend_overheard = True
        if frame.kind is not FrameKind.ACK:
            self.neighbours.observe(frame.src, frame.queue_level, self.sim.now)

    def _on_overheard(self, frame: Frame) -> None:
        self._register_channel_activity(frame)

    def _on_frame_for_us(self, frame: Frame) -> None:
        self._register_channel_activity(frame)

    # -------------------------------------------------------------- inspection
    def policy_snapshot(self) -> List[QAction]:
        """Copy of the current policy (one action per subslot)."""
        return self.qtable.policy_snapshot()

    def transmission_subslots(self) -> List[int]:
        """Subslots in which the current policy transmits (QCCA or QSend)."""
        return self.qtable.transmission_subslots()

    def cumulative_q_value(self) -> float:
        """Current value of the Fig. 10 convergence metric."""
        return self.qtable.cumulative_policy_value()
