"""Lockstep multi-seed batch execution.

The dominant campaign workload is "many seeds × one configuration": every
figure sweep runs the identical scenario under different master seeds.  Each
serial run spends ~90% of its events in the QMA subslot tick, and every lane
ticks at exactly the same simulated times (the subslot grid does not depend
on the seed).  This module exploits that: N prepared same-configuration
scenarios ("lanes") advance through one shared boundary loop, and the
per-tick QMA work — clock bookkeeping, Eq. 5/6/7 boundary evaluation,
parameter-based exploration, ε-draws and policy lookups — runs as numpy
struct-of-arrays operations keyed ``(lane, node)`` instead of N×M Python
callbacks.

Bit-identical by construction
-----------------------------
The batch is not an approximation.  Every source of divergence from the
serial engine is pinned down:

* **Random numbers.** Each QMA agent's ``random.Random`` stream is
  transplanted into a ``numpy.random.MT19937`` (same 624-word core state,
  see :func:`repro.sim.rng.transplant_bit_generator`) and pre-drawn into a
  per-agent word buffer.  ``random()`` and ``choice()`` are re-implemented
  word-for-word (including the rejection loop of ``_randbelow``), so each
  lane consumes exactly the 32-bit words the serial run would have.
* **Event ordering.**  Subslot ticks never enter the heap: the kernel
  keeps each tick's would-be ``(time, seq)`` key, drawn where the serial
  grid clock (:mod:`repro.core.mac`) draws a turn's mark, and drains each
  lane's heap events strictly *before* it through
  ``Simulator._drain_before``.  Every event thus keeps its place relative
  to the ticks.  If a heap event is ever keyed *between* two tick keys of
  one lane, that lane's boundary falls back to running its ticks serially
  through ``QmaMac._on_subslot`` — exactness never rests on "that never
  happens".
* **Floating point.**  All vectorized arithmetic replicates the serial
  expression trees operation-for-operation in float64 (e.g. the Eq. 5
  candidate, the two-word ``random()`` reconstruction, the Fig. 10
  cumulative sum as an ordered per-subslot loop), so IEEE results match
  bitwise.

Everything that is *not* the tick fast path — transmissions, deliveries,
ACKs, traffic generation, collectors — keeps running through the real
objects: the MAC, queue, radio, startup tracker and neighbour tracker are
retrofitted in place (``__class__`` swap to mirror subclasses whose
properties read/write the arrays), so the rare serial paths observe and
mutate the same state the vector phases do.

Lanes whose configuration the kernel does not support (non-QMA MACs,
windowed gates, ε-greedy exploration, ...) are executed serially — the
executor degrades to exactly the per-seed behaviour instead of guessing.
"""

from __future__ import annotations

import itertools
import math
import random as _py_random
from typing import Any, Dict, List, Optional, Sequence, Tuple

try:  # numpy is the batch engine's substrate; without it we fall back to serial.
    import numpy as np
except ImportError:  # pragma: no cover - the CI image always has numpy
    np = None  # type: ignore[assignment]

from repro.core.actions import ALL_ACTIONS, QAction
from repro.core.exploration import ParameterBasedExploration
from repro.core.mac import (
    PENDING_BACKOFF,
    PENDING_CCA_FAILED,
    PENDING_NONE,
    PENDING_STARTUP,
    PENDING_TRANSMISSION,
    QmaMac,
)
from repro.core.neighbours import NeighbourQueueTracker
from repro.core.qtable import QTable
from repro.core.startup import CautiousStartup
from repro.mac.gate import AlwaysActiveGate
from repro.mac.queue import PacketQueue
from repro.phy.radio import Radio
from repro.sim.engine import SimulationError
from repro.sim.rng import transplant_bit_generator

__all__ = [
    "BatchLockstepError",
    "SeedBatchExecutor",
    "batch_compatibility_error",
]

#: Exactly 2**-53 (a power of two, hence an exact float literal): CPython's
#: ``random()`` multiplies by the same constant.
_RECIP_53 = 1.0 / 9007199254740992.0

#: Sentinel larger than any sequence number a run can reach.
_SEQ_HUGE = np.iinfo(np.int64).max if np is not None else 0


class BatchLockstepError(SimulationError):
    """An invariant of the lockstep batch kernel was violated."""


def _merge_by_time(first: List[Any], second: List[Any]) -> List[Any]:
    """Merge two time-sorted ``(time, value)`` lists (timestamps disjoint)."""
    merged: List[Any] = []
    i = j = 0
    while i < len(first) and j < len(second):
        if first[i][0] <= second[j][0]:
            merged.append(first[i])
            i += 1
        else:
            merged.append(second[j])
            j += 1
    merged.extend(first[i:])
    merged.extend(second[j:])
    return merged


# --------------------------------------------------------------------------
# Struct-of-arrays state shared by all facades and the kernel
# --------------------------------------------------------------------------
class _BatchStore:
    """All per-``(lane, node)`` QMA state, columnarized.

    The arrays are the *single* source of truth once the lanes are
    retrofitted: the mirror facades below read and write them, so serial
    code paths (transaction completion, overhearing, ACK handling) and the
    vectorized boundary phases always agree.
    """

    #: Pre-drawn 32-bit MT words kept per agent; boundary phases consume at
    #: most three per agent, so refills are rare and amortized.
    WORD_BUFFER = 192

    def __init__(self, prepared: Sequence[Any]) -> None:
        self.sims = [lane.sim for lane in prepared]
        self.macs: List[List[QmaMac]] = [
            list(lane.built.network.macs.values()) for lane in prepared
        ]
        num_lanes = len(self.macs)
        num_nodes = len(self.macs[0])
        sample = self.macs[0][0]
        config = sample.config
        self.num_lanes = num_lanes
        self.num_nodes = num_nodes
        self.num_subslots = config.num_subslots
        self.subslot_duration = config.subslot_duration
        #: Per node, whether its history is recorded: every lane's MACs
        #: agree (:func:`batch_compatibility_error`), so lane 0 decides.
        self.track_history = np.array([mac._track_history for mac in self.macs[0]])

        qtable = sample.qtable
        self.alpha = qtable.learning_rate
        self.gamma = qtable.discount_factor
        self.penalty = qtable.penalty
        self.q_init = qtable.q_init

        rewards = sample.rewards
        self.r_backoff_overheard = rewards.backoff(True)
        self.r_backoff_idle = rewards.backoff(False)
        self.r_cca_failed = rewards.cca(cca_success=False)

        startup = sample.startup
        self.startup_duration = startup.duration_subslots
        self.startup_cca_punishment = startup.cca_punishment
        self.startup_send_punishment = startup.send_punishment

        self.neighbour_max_age = sample.neighbours.max_age
        self.exploration_table = np.asarray(sample.exploration.table, dtype=np.float64)

        shape = (num_lanes, num_nodes)
        self.Q = np.empty((num_lanes, num_nodes, self.num_subslots, len(ALL_ACTIONS)))
        self.P = np.empty((num_lanes, num_nodes, self.num_subslots), dtype=np.int64)
        self.updates = np.zeros(shape, dtype=np.int64)

        self.pend_kind = np.zeros(shape, dtype=np.int8)
        self.pend_action = np.zeros(shape, dtype=np.int8)
        self.pend_state = np.zeros(shape, dtype=np.int64)
        self.pend_counter = np.zeros(shape, dtype=np.int64)
        self.pend_overheard = np.zeros(shape, dtype=bool)
        self.pend_frames: List[List[Any]] = [[None] * num_nodes for _ in range(num_lanes)]

        self.subslot = np.zeros(shape, dtype=np.int64)
        self.next_subslot = np.zeros(shape, dtype=np.int64)
        self.counter = np.zeros(shape, dtype=np.int64)
        self.frames_elapsed = np.zeros(shape, dtype=np.int64)

        self.startup_elapsed = np.zeros(shape, dtype=np.int64)
        self.startup_finished = np.zeros(shape, dtype=bool)

        self.queue_level = np.zeros(shape, dtype=np.int64)
        self.radio_transmitting = np.zeros(shape, dtype=bool)

        self.nb_sum = np.zeros(shape, dtype=np.int64)
        self.nb_count = np.zeros(shape, dtype=np.int64)
        self.nb_oldest = np.full(shape, np.inf)

        self.words = np.zeros((num_lanes, num_nodes, self.WORD_BUFFER), dtype=np.uint32)
        self.cursor = np.zeros(shape, dtype=np.int64)
        self.bitgens: List[List[Any]] = [[None] * num_nodes for _ in range(num_lanes)]

        #: The ``(time, seq)`` key each agent's next tick *would* carry on
        #: the serial heap; NaN until the agent's clock registers.
        self.tick_time = np.full(shape, np.nan)
        self.tick_seq = np.full(shape, -1, dtype=np.int64)
        self.active = np.ones(shape, dtype=bool)

        self.sel_counts = np.zeros((num_lanes, num_nodes, len(ALL_ACTIONS)), dtype=np.int64)
        self.random_sel = np.zeros(shape, dtype=np.int64)

        #: Deferred history samples: ``(t, lanes, nodes, values)`` per
        #: boundary, materialized into the macs' ``q_history`` /
        #: ``rho_history`` lists at teardown (appending per element during
        #: the run would dominate the boundary cost).
        self.q_hist_batches: List[Tuple[float, Any, Any, Any]] = []
        self.rho_hist_batches: List[Tuple[float, Any, Any, Any]] = []

        for lane in range(num_lanes):
            for node in range(num_nodes):
                self._absorb(lane, node, self.macs[lane][node])

    # ---------------------------------------------------------------- setup
    def _absorb(self, lane: int, node: int, mac: QmaMac) -> None:
        """Copy one agent's state into the arrays and retrofit its objects."""
        if mac._pend_kind != PENDING_NONE:  # pragma: no cover - prepared lanes never ran
            raise BatchLockstepError("cannot absorb a MAC with an in-flight action")
        qtable = mac.qtable
        self.Q[lane, node] = qtable._values
        self.P[lane, node] = qtable._policy
        self.updates[lane, node] = qtable.updates
        self.subslot[lane, node] = mac._subslot
        self.counter[lane, node] = mac._counter
        self.frames_elapsed[lane, node] = mac.frames_elapsed
        startup = mac.startup
        self.startup_elapsed[lane, node] = startup._elapsed
        self.startup_finished[lane, node] = startup._finished
        self.queue_level[lane, node] = mac.queue.level
        self.radio_transmitting[lane, node] = mac.radio.transmitting
        tracker = mac.neighbours
        self.nb_sum[lane, node] = tracker._level_sum
        self.nb_count[lane, node] = len(tracker._levels)
        self.nb_oldest[lane, node] = tracker._oldest_bound

        bitgen = transplant_bit_generator(mac._rng)
        self.bitgens[lane][node] = bitgen
        self.words[lane, node] = bitgen.random_raw(self.WORD_BUFFER)
        self.cursor[lane, node] = 0

        for obj, cls in (
            (mac.queue, BatchPacketQueue),
            (mac.radio, BatchRadio),
            (tracker, BatchNeighbourTracker),
            (startup, BatchStartup),
        ):
            obj._bstore = self
            obj._bl = lane
            obj._bn = node
            obj.__class__ = cls
        mac.qtable = BatchQTable(self, lane, node)
        mac._rng = BatchedMtStream(self, lane, node)
        mac._bstore = self
        mac._bl = lane
        mac._bn = node
        mac.__class__ = BatchQmaMac

    # ----------------------------------------------------------------- words
    def refill_words(self, lane: int, node: int) -> None:
        """Top the word buffer back up, preserving the unconsumed tail."""
        consumed = int(self.cursor[lane, node])
        row = self.words[lane, node]
        tail = row.shape[0] - consumed
        if tail > 0:
            row[:tail] = row[consumed:]
        row[tail:] = self.bitgens[lane][node].random_raw(consumed)
        self.cursor[lane, node] = 0

    # -------------------------------------------------------------- teardown
    def materialize_histories(self) -> None:
        """Distribute the deferred history samples into the macs' lists.

        One stable sort groups the run's samples by agent while keeping
        each agent's chronological order; samples appended directly by
        serial code paths (bootstrap, serial-boundary fallbacks) are merged
        in by timestamp — an agent never receives a vector sample and a
        serial sample for the same boundary, so the merge is unambiguous.
        """
        self._merge_history(self.q_hist_batches, "_q_history")
        self._merge_history(self.rho_hist_batches, "rho_history")

    def _merge_history(self, batches: List[Tuple[float, Any, Any, Any]], attr: str) -> None:
        if not batches:
            return
        num_nodes = self.num_nodes
        keys = np.concatenate([il * num_nodes + inn for _, il, inn, _ in batches])
        times = np.concatenate([np.full(len(il), t) for t, il, _, _ in batches])
        values = np.concatenate([v for _, _, _, v in batches])
        batches.clear()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        times = times[order]
        values = values[order]
        bounds = [0, *(np.nonzero(np.diff(keys))[0] + 1).tolist(), len(keys)]
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            lane, node = divmod(int(keys[lo]), num_nodes)
            mac = self.macs[lane][node]
            items = list(zip(times[lo:hi].tolist(), values[lo:hi].tolist()))
            existing = getattr(mac, attr)
            if existing:
                items = _merge_by_time(existing, items)
            setattr(mac, attr, items)

    def merge_action_stats(self) -> None:
        """Fold the array-side selection counters into the real QmaActionStats.

        The array counters and the live objects covered disjoint selections
        (vector boundaries vs. serial fallbacks), so this is a plain add.
        """
        for lane in range(self.num_lanes):
            for node in range(self.num_nodes):
                stats = self.macs[lane][node].action_stats
                for code, count in enumerate(self.sel_counts[lane, node].tolist()):
                    stats.counts[code] += count
                stats.random_selections += int(self.random_sel[lane, node])
        self.sel_counts[:] = 0
        self.random_sel[:] = 0


# --------------------------------------------------------------------------
# Mirror facades: real objects whose state lives in the store
# --------------------------------------------------------------------------
class BatchedMtStream:
    """Drop-in for a QMA agent's ``random.Random``, fed from pre-drawn words.

    Only the methods QMA uses are provided; each replicates the CPython
    implementation word-for-word against the transplanted MT19937 stream.
    """

    __slots__ = ("_store", "_lane", "_node")

    def __init__(self, store: _BatchStore, lane: int, node: int) -> None:
        self._store = store
        self._lane = lane
        self._node = node

    def _ensure(self, need: int) -> None:
        store = self._store
        if store.cursor[self._lane, self._node] > store.WORD_BUFFER - need:
            store.refill_words(self._lane, self._node)

    def random(self) -> float:
        self._ensure(2)
        store, lane, node = self._store, self._lane, self._node
        cur = int(store.cursor[lane, node])
        row = store.words[lane, node]
        store.cursor[lane, node] = cur + 2
        return ((int(row[cur]) >> 5) * 67108864.0 + (int(row[cur + 1]) >> 6)) * _RECIP_53

    def getrandbits(self, k: int) -> int:
        if not 0 < k <= 32:
            raise ValueError("BatchedMtStream.getrandbits supports 1..32 bits")
        self._ensure(1)
        store, lane, node = self._store, self._lane, self._node
        cur = int(store.cursor[lane, node])
        word = int(store.words[lane, node, cur])
        store.cursor[lane, node] = cur + 1
        return word >> (32 - k)

    def _randbelow(self, n: int) -> int:
        # CPython's Random._randbelow_with_getrandbits, verbatim.
        if not n:
            return 0
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return r

    def choice(self, seq: Sequence[Any]) -> Any:
        if not len(seq):
            raise IndexError("Cannot choose from an empty sequence")
        return seq[self._randbelow(len(seq))]


class BatchQTable:
    """The full :class:`~repro.core.qtable.QTable` API over the store arrays.

    Scalar updates replicate QTable.update operation-for-operation (same
    Python-float expression tree), so a serial-path update and a vectorized
    one produce bitwise identical values.
    """

    __slots__ = ("_store", "_lane", "_node")

    def __init__(self, store: _BatchStore, lane: int, node: int) -> None:
        self._store = store
        self._lane = lane
        self._node = node

    # -- parameters -------------------------------------------------------
    @property
    def num_states(self) -> int:
        return self._store.num_subslots

    @property
    def learning_rate(self) -> float:
        return self._store.alpha

    @property
    def discount_factor(self) -> float:
        return self._store.gamma

    @property
    def penalty(self) -> float:
        return self._store.penalty

    @property
    def q_init(self) -> float:
        return self._store.q_init

    @property
    def updates(self) -> int:
        return int(self._store.updates[self._lane, self._node])

    @updates.setter
    def updates(self, value: int) -> None:
        self._store.updates[self._lane, self._node] = value

    # -- access -----------------------------------------------------------
    def value(self, state: int, action: QAction) -> float:
        return float(self._store.Q[self._lane, self._node, state, action.value])

    def set_value(self, state: int, action: QAction, value: float) -> None:
        self._store.Q[self._lane, self._node, state, action.value] = value

    def max_value(self, state: int) -> float:
        return float(self._store.Q[self._lane, self._node, state].max())

    def best_action(self, state: int) -> QAction:
        row = self._store.Q[self._lane, self._node, state]
        best = row.max()
        for action in ALL_ACTIONS:
            if row[action.value] == best:
                return action
        raise AssertionError("unreachable")  # pragma: no cover

    def policy(self, state: int) -> QAction:
        return ALL_ACTIONS[self.policy_code(state)]

    def policy_code(self, state: int) -> int:
        return int(self._store.P[self._lane, self._node, state])

    def set_policy(self, state: int, action: QAction) -> None:
        self._store.P[self._lane, self._node, state] = action.value

    def policy_snapshot(self) -> List[QAction]:
        return [ALL_ACTIONS[v] for v in self._store.P[self._lane, self._node].tolist()]

    def values_snapshot(self) -> List[Dict[QAction, float]]:
        rows = self._store.Q[self._lane, self._node].tolist()
        return [{action: row[action.value] for action in ALL_ACTIONS} for row in rows]

    # -- update -----------------------------------------------------------
    update = QTable.update

    def apply(self, state: int, code: int, reward: float, next_state: int) -> float:
        store, lane, node = self._store, self._lane, self._node
        alpha = store.alpha
        row = store.Q[lane, node, state]
        old = float(row[code])
        candidate = (1.0 - alpha) * old + alpha * (
            reward + store.gamma * float(store.Q[lane, node, next_state].max())
        )
        new = max(old - store.penalty, candidate)
        row[code] = new
        store.updates[lane, node] += 1

        policy_code = int(store.P[lane, node, state])
        if code != policy_code and new > float(row[policy_code]):
            store.P[lane, node, state] = code
        return candidate

    # -- metrics ----------------------------------------------------------
    def cumulative_policy_value(self) -> float:
        store, lane, node = self._store, self._lane, self._node
        values = store.Q[lane, node]
        policy = store.P[lane, node]
        # Ordered per-subslot adds: matches both the serial generator sum
        # and the kernel's vectorized accumulation bit-for-bit.
        total = 0.0
        for m in range(store.num_subslots):
            total += float(values[m, policy[m]])
        return total

    def cumulative_max_value(self) -> float:
        total = 0.0
        for m in range(self._store.num_subslots):
            total += self.max_value(m)
        return total

    def transmission_subslots(self) -> List[int]:
        policy = self._store.P[self._lane, self._node]
        return [m for m in range(self._store.num_subslots) if policy[m] != QAction.QBACKOFF.value]

    def policy_counts(self) -> Dict[QAction, int]:
        counts = {action: 0 for action in ALL_ACTIONS}
        for value in self._store.P[self._lane, self._node].tolist():
            counts[ALL_ACTIONS[value]] += 1
        return counts

    def memory_footprint_bytes(self, bytes_per_entry: int = 4) -> int:
        return self.num_states * (len(ALL_ACTIONS) * bytes_per_entry + 1)

    def reset(self) -> None:
        store, lane, node = self._store, self._lane, self._node
        store.Q[lane, node] = store.q_init
        store.P[lane, node] = QAction.QBACKOFF.value
        store.updates[lane, node] = 0

    def as_rows(self) -> List[Tuple[int, float, float, float, str]]:
        store, lane, node = self._store, self._lane, self._node
        rows = []
        for m in range(store.num_subslots):
            values = store.Q[lane, node, m]
            rows.append(
                (
                    m,
                    float(values[QAction.QBACKOFF.value]),
                    float(values[QAction.QCCA.value]),
                    float(values[QAction.QSEND.value]),
                    ALL_ACTIONS[int(store.P[lane, node, m])].short_name,
                )
            )
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"BatchQTable(states={self.num_states}, updates={self.updates}, "
            f"cumulative={self.cumulative_policy_value():.1f})"
        )


class BatchPacketQueue(PacketQueue):
    """PacketQueue that mirrors its level into the store on every mutation."""

    def _sync_level(self) -> None:
        self._bstore.queue_level[self._bl, self._bn] = len(self._frames)

    def push(self, frame: Any) -> bool:
        accepted = PacketQueue.push(self, frame)
        self._sync_level()
        return accepted

    def push_front(self, frame: Any) -> bool:
        accepted = PacketQueue.push_front(self, frame)
        self._sync_level()
        return accepted

    def pop(self) -> Optional[Any]:
        frame = PacketQueue.pop(self)
        self._sync_level()
        return frame

    def clear(self) -> None:
        PacketQueue.clear(self)
        self._sync_level()


class BatchRadio(Radio):
    """Radio that mirrors its transmitting flag into the store."""

    def transmit(self, frame: Any, duration: Optional[float] = None) -> float:
        airtime = Radio.transmit(self, frame, duration)
        self._bstore.radio_transmitting[self._bl, self._bn] = True
        return airtime

    def transmission_finished(self, frame: Any) -> None:
        self._bstore.radio_transmitting[self._bl, self._bn] = False
        Radio.transmission_finished(self, frame)


class BatchNeighbourTracker(NeighbourQueueTracker):
    """NeighbourQueueTracker that mirrors its running aggregates."""

    def _sync(self) -> None:
        store = self._bstore
        store.nb_sum[self._bl, self._bn] = self._level_sum
        store.nb_count[self._bl, self._bn] = len(self._levels)
        store.nb_oldest[self._bl, self._bn] = self._oldest_bound

    def observe(self, neighbour_id: int, queue_level: int, now: float) -> None:
        NeighbourQueueTracker.observe(self, neighbour_id, queue_level, now)
        self._sync()

    def forget(self, neighbour_id: int) -> None:
        NeighbourQueueTracker.forget(self, neighbour_id)
        self._sync()

    def _expire(self, now: float) -> None:
        NeighbourQueueTracker._expire(self, now)
        self._sync()


class BatchStartup(CautiousStartup):
    """CautiousStartup whose progress lives in the store.

    ``_elapsed``/``_finished`` become data descriptors over the arrays, so
    the inherited ``tick()``/``active``/``restart()`` keep working unchanged
    for serial code paths while the kernel advances the arrays directly.
    """

    @property
    def _elapsed(self) -> int:
        return int(self._bstore.startup_elapsed[self._bl, self._bn])

    @_elapsed.setter
    def _elapsed(self, value: int) -> None:
        self._bstore.startup_elapsed[self._bl, self._bn] = value

    @property
    def _finished(self) -> bool:
        return bool(self._bstore.startup_finished[self._bl, self._bn])

    @_finished.setter
    def _finished(self, value: bool) -> None:
        self._bstore.startup_finished[self._bl, self._bn] = value


def _store_field(name: str, cast: Any) -> property:
    """A property over this agent's element of the store array ``name``."""

    def get(self: Any) -> Any:
        return cast(getattr(self._bstore, name)[self._bl, self._bn])

    def set(self: Any, value: Any) -> None:
        getattr(self._bstore, name)[self._bl, self._bn] = value

    return property(get, set)


class BatchQmaMac(QmaMac):
    """QmaMac whose subslot clock and pending action live in the store.

    Instances are never constructed — prepared lanes are retrofitted via a
    ``__class__`` swap.  The data-descriptor properties shadow the original
    instance attributes, so untouched serial methods (boundary evaluation,
    transaction completion, overhearing) transparently operate on the
    arrays.
    """

    _subslot = _store_field("subslot", int)
    _counter = _store_field("counter", int)
    _frames_elapsed = _store_field("frames_elapsed", int)
    _pend_kind = _store_field("pend_kind", int)
    _pend_action = _store_field("pend_action", int)
    _pend_state = _store_field("pend_state", int)
    _pend_counter = _store_field("pend_counter", int)
    _pend_overheard = _store_field("pend_overheard", bool)

    @property
    def _pend_frame(self) -> Optional[Any]:
        return self._bstore.pend_frames[self._bl][self._bn]

    @_pend_frame.setter
    def _pend_frame(self, value: Optional[Any]) -> None:
        self._bstore.pend_frames[self._bl][self._bn] = value

    def start(self) -> None:
        raise SimulationError("cannot (re)start a MAC inside a running seed batch")

    def stop(self) -> None:
        QmaMac.stop(self)
        self._bstore.active[self._bl, self._bn] = False

    def _schedule_next_tick(self) -> None:
        # The node leaves its subslot grid at its first turn, and its tick
        # never enters the heap again: record the (time, seq) key it
        # would have carried.  The sequence number is drawn from the lane's
        # real counter, so heap events scheduled later sort exactly as they
        # would in a serial run.  Gate handling is omitted on purpose — the
        # batch only absorbs AlwaysActiveGate MACs.
        if self._grid is not None:
            self._grid.leave(self)
        store, lane, node = self._bstore, self._bl, self._bn
        sim = self.sim
        store.next_subslot[lane, node] = (
            int(store.subslot[lane, node]) + 1
        ) % store.num_subslots
        store.tick_time[lane, node] = sim._now + store.subslot_duration
        store.tick_seq[lane, node] = next(sim._seq)


# --------------------------------------------------------------------------
# The lockstep kernel
# --------------------------------------------------------------------------
class _LockstepKernel:
    """Advances all lanes boundary-by-boundary with vectorized tick phases."""

    def __init__(self, store: _BatchStore) -> None:
        self.store = store
        self._node_arange = np.arange(store.num_nodes, dtype=np.int64)

    def run(self, end_time: float) -> None:
        self._bootstrap()
        store = self.store
        self._end_time = end_time
        #: Per lane, the first boundary time that counts as an event (see
        #: _count); ``step()`` counted the bootstrap's boundary already.
        self._count_from = [-math.inf] * store.num_lanes
        self._count(0.0, range(store.num_lanes), self._lane_busy(), events=0)
        while True:
            t = self._next_boundary_time()
            if t is None or t > end_time:
                break
            self._process_boundary(t)
        for sim in store.sims:
            sim.run_until(end_time)

    # ------------------------------------------------------------ bootstrap
    def _bootstrap(self) -> None:
        """Run each lane's first (heap-scheduled) ticks serially.

        ``network.start()`` ran before the retrofit, so the t=0 boundary of
        the lane's subslot grid sits on the heap with every node due;
        firing it takes each node's turn over the facades, and every
        turn's ``_schedule_next_tick`` (now the override) registers the
        agent's clock with the kernel and takes it off the grid, which
        then pushes no further boundary.
        """
        store = self.store
        for lane, sim in enumerate(store.sims):
            budget = 2 * store.num_nodes + 16
            while np.isnan(store.tick_time[lane][store.active[lane]]).any():
                if budget <= 0 or not sim.step():
                    raise BatchLockstepError(
                        "lane's subslot clocks failed to register during bootstrap"
                    )
                budget -= 1

    # ------------------------------------------------------------ boundaries
    def _next_boundary_time(self) -> Optional[float]:
        store = self.store
        active = store.active
        if not active.any():
            return None
        times = store.tick_time[active]
        t = times.min()
        if not (times == t).all():
            raise BatchLockstepError(
                "lanes fell out of lockstep (non-uniform subslot boundary times)"
            )
        return float(t)

    def _process_boundary(self, t: float) -> None:
        store = self.store
        active = store.active
        # Per-lane drain bounds in four whole-array ops (a per-lane Python
        # reduction here would scale the boundary cost with the lane count).
        seq_lo = np.where(active, store.tick_seq, _SEQ_HUGE).min(axis=1).tolist()
        seq_hi = np.where(active, store.tick_seq, -1).max(axis=1).tolist()
        lane_any = active.any(axis=1).tolist()
        vector_lane = np.zeros(store.num_lanes, dtype=bool)
        serial_lanes: List[int] = []
        vector_lanes: List[int] = []
        for lane, sim in enumerate(store.sims):
            if not lane_any[lane]:
                continue
            sim._drain_before(t, seq_lo[lane])
            if sim._stopped:
                raise BatchLockstepError(
                    "Simulator.stop() inside a seed batch is unsupported"
                )
            sim._now = t
            # A live heap event between this lane's tick keys?
            key = sim._next_key()
            if key is not None and key[0] == t and key[1] < seq_hi[lane]:
                serial_lanes.append(lane)
            else:
                vector_lane[lane] = True
                vector_lanes.append(lane)
        due = [self._serial_boundary(lane, t) for lane in serial_lanes]
        if vector_lanes:
            mask = active & vector_lane[:, None]
            delegates = self._vector_phases(t, mask)
            self._finish_boundary(t, mask, vector_lanes, delegates)
        if t >= min(self._count_from):
            busy = self._lane_busy()
            for lane, lane_due in zip(serial_lanes, due):
                busy[lane] = busy[lane] or lane_due
            self._count(t, serial_lanes + vector_lanes, busy)

    def _lane_busy(self) -> List[bool]:
        """Per lane: does an active node have work (an action pending, a
        frame queued or cautious startup still running)?"""
        store = self.store
        # On bools ``a >= b`` is ``a or not b``: fewer whole-array ops.
        busy = np.logical_or(store.pend_kind, store.queue_level) >= store.startup_finished
        busy &= store.active
        return busy.any(axis=1).tolist()

    def _count(self, t: float, lanes: Any, busy: List[bool], events: int = 1) -> None:
        """Count one event per lane boundary the serial grid clock gives a
        heap entry: one with a node due, or the first at or after both the
        heap's head and the run's end seen when the lane last went idle.
        The boundaries an idle serial grid leaps over count nothing."""
        count_from, sims, end = self._count_from, self.store.sims, self._end_time
        for lane in lanes:
            if t >= count_from[lane]:
                sim = sims[lane]
                sim.events_executed += events
                if busy[lane]:
                    count_from[lane] = -math.inf
                else:
                    queue = sim._queue
                    count_from[lane] = min(queue[0][0], end) if queue else end

    def _serial_boundary(self, lane: int, t: float) -> bool:
        """Exact fallback: run this lane's boundary through the real tick.

        Triggered when a heap event's ``(time, seq)`` key falls between two
        tick keys of the lane — the vector phases cannot honour that
        ordering, the original per-node ``_on_subslot`` trivially does.
        Returns whether a node ended its turn with work, as the serial grid
        tests it at the end of each turn.
        """
        store = self.store
        sim = store.sims[lane]
        due = False
        for node in np.argsort(store.tick_seq[lane], kind="stable").tolist():
            if not store.active[lane, node]:
                continue
            sim._drain_before(t, int(store.tick_seq[lane, node]))
            sim._now = t
            mac = store.macs[lane][node]
            mac._on_subslot(int(store.next_subslot[lane, node]))
            due = due or bool(mac._pend_kind or mac.queue._frames or not mac.startup._finished)
        return due

    # --------------------------------------------------------- vector phases
    def _vector_update(self, il: Any, inn: Any, action: int, reward: Any) -> None:
        """Vectorized Eq. 5 update: ``Q[state, action] <- reward`` per element.

        ``state`` is each element's pending state, ``next_state`` the subslot
        just entered.  The expression tree matches ``QTable.update``
        operation-for-operation in float64.
        """
        store = self.store
        state = store.pend_state[il, inn]
        nxt = store.subslot[il, inn]
        old = store.Q[il, inn, state, action]
        future = store.Q[il, inn, nxt].max(axis=1)
        candidate = (1.0 - store.alpha) * old + store.alpha * (
            reward + store.gamma * future
        )
        new = np.maximum(old - store.penalty, candidate)
        store.Q[il, inn, state, action] = new
        store.updates[il, inn] += 1
        policy = store.P[il, inn, state]
        changed = (policy != action) & (new > store.Q[il, inn, state, policy])
        if changed.any():
            store.P[il[changed], inn[changed], state[changed]] = action

    def _vector_phases(self, t: float, mask: Any) -> Dict[int, Dict[int, int]]:
        store = self.store

        # Phase 0 — clock bookkeeping and the Fig. 10 history sample.
        store.subslot[mask] = store.next_subslot[mask]
        store.counter[mask] += 1
        frame_start = mask & (store.subslot == 0)
        if frame_start.any():
            store.frames_elapsed[frame_start] += 1
            recorded = frame_start & store.track_history
            if recorded.any():
                il, inn = np.nonzero(recorded)
                rows = np.take_along_axis(
                    store.Q[il, inn], store.P[il, inn][:, :, None], axis=2
                )[:, :, 0]
                acc = np.zeros(len(il))
                for m in range(store.num_subslots):
                    acc = acc + rows[:, m]
                # Deferred: crossing into per-mac Python lists here would
                # dominate the boundary cost; materialized at teardown.
                store.q_hist_batches.append((t, il, inn, acc))

        # Idle boundary: with no boundary action pending, every startup over
        # and every queue empty, phases 1-2 would change nothing.  Checking
        # every agent, masked or not, is cheaper than masking and still
        # exact.  The test most likely to find work goes first.
        kind = store.pend_kind
        if not (
            np.count_nonzero(store.queue_level)
            or np.count_nonzero(~store.startup_finished)
            or np.count_nonzero((kind != PENDING_NONE) & (kind != PENDING_TRANSMISSION))
        ):
            return {}

        # Phase 1 — evaluate pendings whose outcome resolves at the boundary.
        eval_backoff = mask & (store.pend_kind == PENDING_BACKOFF)
        eval_cca = mask & (store.pend_kind == PENDING_CCA_FAILED)
        eval_startup = mask & (store.pend_kind == PENDING_STARTUP)
        if eval_backoff.any():
            il, inn = np.nonzero(eval_backoff)
            reward = np.where(
                store.pend_overheard[il, inn],
                store.r_backoff_overheard,
                store.r_backoff_idle,
            )
            self._vector_update(il, inn, QAction.QBACKOFF.value, reward)
        if eval_cca.any():
            il, inn = np.nonzero(eval_cca)
            self._vector_update(il, inn, QAction.QCCA.value, store.r_cca_failed)
        if eval_startup.any():
            il, inn = np.nonzero(eval_startup)
            overheard = store.pend_overheard[il, inn]
            reward = np.where(overheard, store.r_backoff_overheard, store.r_backoff_idle)
            self._vector_update(il, inn, QAction.QBACKOFF.value, reward)
            ol, on = il[overheard], inn[overheard]
            if ol.size:
                # Serial order: punish QCCA, then QSend, re-reading the policy.
                self._vector_update(ol, on, QAction.QCCA.value, store.startup_cca_punishment)
                self._vector_update(ol, on, QAction.QSEND.value, store.startup_send_punishment)
        resolved = eval_backoff | eval_cca | eval_startup
        if resolved.any():
            store.pend_kind[resolved] = PENDING_NONE

        # Phase 2 — startup observation or action selection.
        idle = mask & (store.pend_kind == PENDING_NONE) & ~store.radio_transmitting
        startup_obs = idle & ~store.startup_finished
        if startup_obs.any():
            store.pend_kind[startup_obs] = PENDING_STARTUP
            store.pend_state[startup_obs] = store.subslot[startup_obs]
            store.pend_overheard[startup_obs] = False
            store.startup_elapsed[startup_obs] += 1
            store.startup_finished |= startup_obs & (
                store.startup_elapsed >= store.startup_duration
            )

        delegates: Dict[int, Dict[int, int]] = {}
        select = idle & ~startup_obs & (store.queue_level > 0)
        if select.any():
            il, inn = np.nonzero(select)
            if store.neighbour_max_age is not None:
                cutoff = t - store.neighbour_max_age
                stale = np.nonzero(store.nb_oldest[il, inn] < cutoff)[0]
                for k in stale.tolist():
                    # The real tracker expires and re-syncs its mirrors.
                    store.macs[il[k]][inn[k]].neighbours._expire(t)
            counts = store.nb_count[il, inn]
            average = np.where(
                counts > 0, store.nb_sum[il, inn] / np.maximum(counts, 1), 0.0
            )
            difference = store.queue_level[il, inn] - average
            table = store.exploration_table
            index = np.clip(difference.astype(np.int64), 0, len(table) - 1)
            rho = np.where(difference > 0, table[index], table[0])
            recorded = store.track_history[inn]
            if recorded.any():
                store.rho_hist_batches.append((t, il[recorded], inn[recorded], rho[recorded]))

            # The ρ-draw: two MT words per element, CPython random() exactly.
            need = np.nonzero(store.cursor[il, inn] > store.WORD_BUFFER - 2)[0]
            for k in need.tolist():
                store.refill_words(il[k], inn[k])
            cur = store.cursor[il, inn]
            w0 = store.words[il, inn, cur]
            w1 = store.words[il, inn, cur + 1]
            store.cursor[il, inn] = cur + 2
            draw = (
                (w0 >> np.uint32(5)).astype(np.float64) * 67108864.0
                + (w1 >> np.uint32(6)).astype(np.float64)
            ) * _RECIP_53
            explore = draw < rho
            greedy = ~explore
            actions = np.empty(len(il), dtype=np.int64)
            if greedy.any():
                gl, gn = il[greedy], inn[greedy]
                actions[greedy] = store.P[gl, gn, store.subslot[gl, gn]]
            # choice(ALL_ACTIONS): per-element 2-bit rejection sampling.
            pending = np.nonzero(explore)[0]
            while pending.size:
                pl, pn = il[pending], inn[pending]
                need = np.nonzero(store.cursor[pl, pn] > store.WORD_BUFFER - 1)[0]
                for k in need.tolist():
                    store.refill_words(pl[k], pn[k])
                cur = store.cursor[pl, pn]
                bits = store.words[pl, pn, cur] >> np.uint32(30)
                store.cursor[pl, pn] = cur + 1
                accepted = bits < len(ALL_ACTIONS)
                actions[pending[accepted]] = bits[accepted].astype(np.int64)
                pending = pending[~accepted]

            store.sel_counts[il, inn, actions] += 1
            store.random_sel[il[explore], inn[explore]] += 1

            # QBackoff resolves entirely in-array; QCCA/QSend touch the
            # channel and run through the real _execute in phase 3.
            backoff = actions == QAction.QBACKOFF.value
            if backoff.any():
                bl, bn = il[backoff], inn[backoff]
                store.pend_kind[bl, bn] = PENDING_BACKOFF
                store.pend_state[bl, bn] = store.subslot[bl, bn]
                store.pend_overheard[bl, bn] = False
            for k in np.nonzero(~backoff)[0].tolist():
                delegates.setdefault(int(il[k]), {})[int(inn[k])] = int(actions[k])
        return delegates

    def _finish_boundary(
        self,
        t: float,
        mask: Any,
        vector_lanes: List[int],
        delegates: Dict[int, Dict[int, int]],
    ) -> None:
        """Phase 3: channel-touching actions and next-tick registration.

        Per lane, nodes are visited in tick-seq (== node) order so that a
        QSend of an earlier node is visible to a later node's CCA exactly
        as in a serial run, and sequence numbers are drawn in the serial
        order (action events first, then the node's next tick).
        """
        store = self.store
        next_time = t + store.subslot_duration
        num_nodes = store.num_nodes
        # Whole-array clock advance for every vector lane at once; only the
        # sequence-number bookkeeping below needs a per-lane pass.
        store.tick_time[mask] = next_time
        store.next_subslot[mask] = (store.subslot[mask] + 1) % store.num_subslots
        counts = mask.sum(axis=1).tolist()
        for lane in vector_lanes:
            sim = store.sims[lane]
            count = counts[lane]
            lane_delegates = delegates.get(lane)
            if lane_delegates:
                # Rare path (an agent chose QCCA/QSend): walk the lane's
                # nodes so the action's heap events draw their seqs in the
                # serial interleaving.
                row = mask[lane]
                for node in np.nonzero(row)[0].tolist():
                    action = lane_delegates.get(node)
                    if action is not None:
                        mac = store.macs[lane][node]
                        mac._execute(action, int(store.subslot[lane, node]))
                    store.tick_seq[lane, node] = next(sim._seq)
            else:
                # No heap events will be scheduled: bulk-consume one seq per
                # node without touching the iterator N times.
                base = next(sim._seq)
                if count == num_nodes:
                    np.add(self._node_arange, base, out=store.tick_seq[lane])
                else:
                    nodes = np.nonzero(mask[lane])[0]
                    store.tick_seq[lane, nodes] = base + np.arange(count, dtype=np.int64)
                sim._seq = itertools.count(base + count)


# --------------------------------------------------------------------------
# Public executor
# --------------------------------------------------------------------------
def batch_compatibility_error(prepared: Sequence[Any]) -> Optional[str]:
    """Why the prepared lanes cannot run in lockstep (None if they can).

    The kernel replicates one specific inner loop; anything it has not been
    proven bit-identical for — other MAC kinds, windowed gates, decaying
    exploration, custom component subclasses — degrades to serial execution
    rather than risking a silent divergence.
    """
    if np is None:
        return "numpy is not available"
    first = prepared[0]
    end_time = first.end_time
    node_ids = list(first.built.network.macs.keys())
    sample = next(iter(first.built.network.macs.values()), None)
    if sample is None:
        return "lane has no nodes"
    if not isinstance(sample, QmaMac):
        return f"unsupported MAC kind: {type(sample).__name__}"
    for lane in prepared:
        if lane.end_time != end_time:
            return "lanes have different end times"
        if lane.sim.now != 0.0:
            return "lane has already been run"
        if list(lane.built.network.macs.keys()) != node_ids:
            return "lanes have different node sets"
        peers = first.built.network.macs.values()
        for mac, peer in zip(lane.built.network.macs.values(), peers):
            if type(mac) is not QmaMac:
                return f"unsupported MAC kind: {type(mac).__name__}"
            if type(mac.gate) is not AlwaysActiveGate:
                return f"unsupported activity gate: {type(mac.gate).__name__}"
            if type(mac.exploration) is not ParameterBasedExploration:
                return f"unsupported exploration: {type(mac.exploration).__name__}"
            if (
                type(mac.qtable) is not QTable
                or type(mac.startup) is not CautiousStartup
                or type(mac.neighbours) is not NeighbourQueueTracker
                or type(mac.queue) is not PacketQueue
                or type(mac.radio) is not Radio
                or type(mac._rng) is not _py_random.Random
            ):
                return "MAC uses customised components"
            if (
                mac.config != sample.config
                or mac.rewards != sample.rewards
                or mac.exploration.table != sample.exploration.table
                or mac.neighbours.max_age != sample.neighbours.max_age
            ):
                return "lanes have heterogeneous QMA parameters"
            if mac._track_history != peer._track_history:
                return "lanes differ in which MACs record their histories"
    return None


class SeedBatchExecutor:
    """Runs prepared same-configuration scenario lanes, batched when possible.

    ``run`` takes handles with ``sim``/``end_time``/``built``/``finish()``
    (:class:`repro.experiments.testbed.PreparedTopologyRun` is the canonical
    shape), executes all of them, and returns their finalized reports in
    input order.  Lanes the lockstep kernel supports advance together with
    vectorized tick phases; anything else runs serially — results are
    bit-identical either way.
    """

    def __init__(self, force_serial: bool = False) -> None:
        self.force_serial = force_serial
        #: Why the last ``run`` fell back to serial execution (None if it
        #: ran the lockstep kernel); exposed for tests and benchmarks.
        self.last_fallback_reason: Optional[str] = None

    def run(self, prepared: Sequence[Any]) -> List[Any]:
        lanes = list(prepared)
        if not lanes:
            return []
        reason: Optional[str] = "forced serial" if self.force_serial else None
        if reason is None:
            reason = batch_compatibility_error(lanes)
        if reason is None and len(lanes) == 1:
            reason = "single lane"
        self.last_fallback_reason = reason
        if reason is None:
            store = _BatchStore(lanes)
            _LockstepKernel(store).run(lanes[0].end_time)
            store.materialize_histories()
            store.merge_action_stats()
        else:
            for lane in lanes:
                lane.sim.run_until(lane.end_time)
        return [lane.finish() for lane in lanes]
