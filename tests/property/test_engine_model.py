"""Model-based test of the event engine against a plain reference model.

Hypothesis draws random programs of scheduling calls (``schedule`` and
``schedule_at``, with and without an argument), invalid event times
(negative, NaN, infinite), ``run_until`` (with events exactly at
``end_time``) and ``step``.  Fired callbacks may themselves schedule or
``stop()`` the run.  The reference model is a list searched for the
smallest ``(time, scheduling order)`` key; after every call the executed
order, ``pending_events()``, ``events_executed`` and ``now`` must agree,
and every invalid time must raise without touching either.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator

KINDS = ("schedule", "schedule_at")
#: Offsets on a binary grid, so equal times compare exactly and events
#: land exactly on ``run_until``'s ``end_time``.
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0])
BAD_DELAYS = st.sampled_from([-0.25, math.nan, math.inf, -math.inf])

Action = Tuple[Any, ...]

callback_actions = st.recursive(
    st.one_of(st.just(("noop",)), st.just(("stop",))),
    lambda inner: st.tuples(st.just("schedule"), st.sampled_from(KINDS), DELAYS, inner),
    max_leaves=4,
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.sampled_from(KINDS), DELAYS, callback_actions),
        st.tuples(st.just("bad"), st.sampled_from(KINDS), BAD_DELAYS),
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
        self.labels = 0
        self.stopped = False

    def apply(self, action: Action) -> None:
        kind = action[0]
        if kind == "stop":
            self.stopped = True
        elif kind == "schedule":
            self.pending.append({"time": self.now + action[2], "label": self.labels,
                                 "action": action[3]})
            self.labels += 1

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
        self.now = entry["time"]
        self.executed += 1
        self.fired.append(entry["label"])
        self.apply(entry["action"])


class Driven:
    """The real :class:`Simulator`, driven by the same actions."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.fired: List[int] = []
        self.labels = 0

    def apply(self, action: Action) -> None:
        kind = action[0]
        if kind == "stop":
            self.sim.stop()
        elif kind == "schedule":
            label = self.labels
            self.labels += 1
            self.schedule(action[1], action[2], label, action[3])

    def schedule(self, kind: str, delay: float, label: int, action: Action) -> None:
        sim = self.sim
        schedule = sim.schedule if kind == "schedule" else sim.schedule_at
        when = delay if kind == "schedule" else sim.now + delay
        if label % 2:
            schedule(when, lambda: self.fire(label, action))  # bare call, no argument
        else:
            schedule(when, self.fire_packed, (label, action))

    def fire_packed(self, packed: Tuple[int, Action]) -> None:
        self.fire(*packed)

    def fire(self, label: int, action: Action) -> None:
        self.fired.append(label)
        self.apply(action)


@given(operations)
@settings(deadline=None)  # example count: the profile (tests/conftest.py)
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
        elif op[0] == "bad":
            with pytest.raises(SimulationError):
                driven.schedule(op[1], op[2], -1, ("noop",))
        else:
            driven.apply(op)
            model.apply(op)
        assert driven.fired == model.fired
        assert sim.pending_events() == len(model.pending)
        assert sim.events_executed == model.executed
        assert sim.now == model.now
