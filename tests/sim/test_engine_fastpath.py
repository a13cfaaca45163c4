"""Tests for the engine's one scheduling API.

``schedule`` / ``schedule_at`` share one sequence counter, so mixing both
must preserve the deterministic ``(time, seq)`` execution order; an event
with no argument calls its callback bare; negative, NaN and infinite times
are rejected on both; and every popped event counts as executed.
"""

from __future__ import annotations

import math

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_relative_and_absolute_events_share_one_ordering():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "rel-a")
    sim.schedule_at(1.0, fired.append, "abs-a")
    sim.schedule(0.5, fired.append, "rel-early")
    sim.schedule(1.0, fired.append, "rel-b")
    sim.schedule_at(0.75, fired.append, "abs-early")
    sim.run_until(2.0)
    # Same-time events fire in scheduling order across both schedulers.
    assert fired == ["rel-early", "abs-early", "rel-a", "abs-a", "rel-b"]


def test_schedule_without_argument_calls_bare():
    sim = Simulator()
    calls = []
    sim.schedule(1.0, lambda: calls.append("bare"))
    sim.schedule_at(1.5, lambda *args: calls.append(args))
    sim.schedule(2.0, calls.append, 0)  # a falsy argument is still passed
    sim.run_until(3.0)
    assert calls == ["bare", (), 0]


def test_schedule_rejects_negative_delay_and_past_times():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_schedulers_reject_nan_and_infinite_times(bad):
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule_at(t, fired.append, t)
    with pytest.raises(SimulationError):
        sim.schedule(bad, fired.append, "bad")
    with pytest.raises(SimulationError):
        sim.schedule_at(bad, fired.append, "bad")
    assert sim.pending_events() == 3
    sim.run_until(5.0)
    assert fired == [1.0, 2.0, 3.0]
    assert sim.now == 5.0


def test_run_until_rejects_nan():
    sim = Simulator()

    def tick():
        sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    with pytest.raises(SimulationError):
        sim.run_until(math.nan)
    sim.run_until(3.5)
    assert sim.events_executed == 3
    assert sim.now == 3.5


def test_events_executed_counts_stale_events_too():
    """A stale event (its callback no-ops on an old epoch) still pops and
    counts, and stays in ``pending_events`` until it does."""
    sim = Simulator()
    epoch = [1]
    fired = []

    def guarded(scheduled_in):
        if scheduled_in == epoch[0]:
            fired.append(scheduled_in)

    sim.schedule(1.0, guarded, 1)
    sim.schedule_at(1.0, lambda: None)
    epoch[0] = 2
    assert sim.pending_events() == 2
    sim.run_until(2.0)
    assert fired == []
    assert sim.events_executed == 2
    assert sim.pending_events() == 0
