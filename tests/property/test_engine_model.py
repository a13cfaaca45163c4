"""Model-based test of the event engine against a plain reference model.

Hypothesis draws random programs of scheduling calls (all four
``schedule*`` variants), cancels of pending, fired and already-cancelled
events, ``run_until`` (with events exactly at ``end_time``) and ``step``.
Fired callbacks may themselves schedule, cancel, ``stop()`` the run or
cancel more than ``COMPACT_MIN_CANCELLED`` events at once (forcing a heap
compaction in the middle of a drain).  The reference model is a list
searched for the smallest ``(time, scheduling order)`` key; after every
call the executed order, ``pending_events()``, ``events_executed`` and
``now`` must agree.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

KINDS = ("schedule", "schedule_at", "schedule_fast", "schedule_at_fast")
#: Offsets on a binary grid, so equal times compare exactly and events
#: land exactly on ``run_until``'s ``end_time``.
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0])
#: Enough cancels from one callback to trigger an in-drain compaction.
MASS_CANCEL = Simulator.COMPACT_MIN_CANCELLED + 8
#: Far beyond any clock a program can reach, so doomed events never fire.
FAR = 1000.0

Action = Tuple[Any, ...]

callback_actions = st.recursive(
    st.one_of(
        st.just(("noop",)),
        st.just(("stop",)),
        st.just(("mass_cancel",)),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
    ),
    lambda inner: st.tuples(st.just("schedule"), st.sampled_from(KINDS), DELAYS, inner),
    max_leaves=4,
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.sampled_from(KINDS), DELAYS, callback_actions),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("run_until"), DELAYS),
        st.just(("step",)),
    ),
    max_size=40,
)


class Model:
    """The engine's contract, written as directly as possible."""

    def __init__(self) -> None:
        self.now = 0.0
        self.executed = 0
        self.fired: List[int] = []
        self.pending: List[Dict[str, Any]] = []
        self.handles: List[Dict[str, Any]] = []
        self.labels = 0
        self.stopped = False

    def apply(self, action: Action) -> None:
        kind = action[0]
        if kind == "stop":
            self.stopped = True
        elif kind == "cancel":
            if self.handles:
                self.cancel(self.handles[action[1] % len(self.handles)])
        elif kind == "mass_cancel":
            doomed = [self.schedule(FAR, ("noop",)) for _ in range(MASS_CANCEL)]
            for entry in doomed:
                self.cancel(entry)
        elif kind == "schedule":
            entry = self.schedule(action[2], action[3])
            if action[1] in ("schedule", "schedule_at"):
                self.handles.append(entry)

    def schedule(self, delay: float, action: Action) -> Dict[str, Any]:
        entry = {"time": self.now + delay, "label": self.labels, "action": action,
                 "state": "pending"}
        self.labels += 1
        self.pending.append(entry)
        return entry

    def cancel(self, entry: Dict[str, Any]) -> None:
        if entry["state"] == "pending":
            entry["state"] = "cancelled"
            self.pending.remove(entry)

    def step(self) -> bool:
        if not self.pending:
            return False
        self.fire(min(self.pending, key=lambda e: (e["time"], e["label"])))
        return True

    def run_until(self, end_time: float) -> None:
        self.stopped = False
        while self.pending and not self.stopped:
            entry = min(self.pending, key=lambda e: (e["time"], e["label"]))
            if entry["time"] > end_time:
                break
            self.fire(entry)
        if not self.stopped:
            self.now = max(self.now, end_time)

    def fire(self, entry: Dict[str, Any]) -> None:
        self.pending.remove(entry)
        entry["state"] = "fired"
        self.now = entry["time"]
        self.executed += 1
        self.fired.append(entry["label"])
        self.apply(entry["action"])


class Driven:
    """The real :class:`Simulator`, driven by the same actions."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.fired: List[int] = []
        self.handles: List[Any] = []
        self.labels = 0

    def apply(self, action: Action) -> None:
        kind = action[0]
        if kind == "stop":
            self.sim.stop()
        elif kind == "cancel":
            if self.handles:
                self.sim.cancel(self.handles[action[1] % len(self.handles)])
        elif kind == "mass_cancel":
            doomed = [self.schedule("schedule", FAR, ("noop",)) for _ in range(MASS_CANCEL)]
            for event in doomed:
                event.cancel()
        elif kind == "schedule":
            event = self.schedule(action[1], action[2], action[3])
            if event is not None:
                self.handles.append(event)

    def schedule(self, kind: str, delay: float, action: Action) -> Optional[Any]:
        label = self.labels
        self.labels += 1
        sim = self.sim
        if kind == "schedule":
            return sim.schedule(delay, self.fire, label, action)
        if kind == "schedule_at":
            return sim.schedule_at(sim.now + delay, self.fire, label=label, action=action)
        schedule = sim.schedule_fast if kind == "schedule_fast" else sim.schedule_at_fast
        when = delay if kind == "schedule_fast" else sim.now + delay
        if label % 2:
            schedule(when, lambda: self.fire(label, action))  # bare call, no argument
        else:
            schedule(when, self.fire_packed, (label, action))
        return None

    def fire_packed(self, packed: Tuple[int, Action]) -> None:
        self.fire(*packed)

    def fire(self, label: int, action: Action) -> None:
        self.fired.append(label)
        self.apply(action)


@given(operations)
@settings(max_examples=200, deadline=None)
def test_engine_matches_reference_model(program):
    model, driven = Model(), Driven()
    sim = driven.sim
    for op in program:
        if op[0] == "run_until":
            end_time = sim.now + op[1]
            sim.run_until(end_time)
            model.run_until(end_time)
        elif op[0] == "step":
            assert sim.step() == model.step()
        else:
            driven.apply(op)
            model.apply(op)
        assert driven.fired == model.fired
        assert sim.pending_events() == len(model.pending)
        assert sim.events_executed == model.executed
        assert sim.now == model.now
