"""Tests for the fire-and-forget scheduler fast path.

``schedule_fast`` / ``schedule_at_fast`` share the sequence counter with
the general path, so mixing both must preserve the deterministic
``(time, seq)`` execution order; NaN and infinite times are rejected on
every path; ``pending_events`` stays exact under cancels; and
lazily-cancelled heap entries are compacted away once they dominate the
queue.
"""

from __future__ import annotations

import math

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_fast_and_generic_events_share_one_ordering():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "generic-a")
    sim.schedule_fast(1.0, fired.append, "fast-a")
    sim.schedule_fast(0.5, fired.append, "fast-early")
    sim.schedule(1.0, fired.append, "generic-b")
    sim.schedule_at_fast(0.75, fired.append, "fast-at")
    sim.run_until(2.0)
    # Same-time events fire in scheduling order across both paths.
    assert fired == ["fast-early", "fast-at", "generic-a", "fast-a", "generic-b"]


def test_schedule_fast_without_argument_calls_bare():
    sim = Simulator()
    calls = []
    sim.schedule_fast(1.0, lambda: calls.append("bare"))
    sim.run_until(2.0)
    assert calls == ["bare"]


def test_schedule_fast_rejects_negative_delay_and_past_times():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.schedule_fast(-0.1, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at_fast(1.0, lambda: None)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fast_paths_reject_nan_and_infinite_times(bad):
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule_at_fast(t, fired.append, t)
    with pytest.raises(SimulationError):
        sim.schedule_fast(bad, fired.append, "bad")
    with pytest.raises(SimulationError):
        sim.schedule_at_fast(bad, fired.append, "bad")
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
        sim.schedule_fast(1.0, tick)

    sim.schedule_fast(1.0, tick)
    with pytest.raises(SimulationError):
        sim.run_until(math.nan)
    sim.run_until(3.5)
    assert sim.events_executed == 3
    assert sim.now == 3.5


def test_recycled_shells_keep_events_ordered():
    """A callback scheduling from within its own firing keeps the
    (time, seq) order."""
    sim = Simulator()
    fired = []

    def chain(label):
        fired.append(label)
        if len(fired) < 5:
            sim.schedule_fast(0.5, chain, f"hop-{len(fired)}")

    sim.schedule_fast(0.5, chain, "hop-0")
    sim.run_until(10.0)
    assert fired == [f"hop-{i}" for i in range(5)]


def test_pending_events_is_a_live_counter():
    sim = Simulator()
    events = [sim.schedule(1.0 + i, lambda: None) for i in range(3)]
    sim.schedule_fast(1.0, lambda: None)
    assert sim.pending_events() == 4
    events[0].cancel()
    assert sim.pending_events() == 3
    events[0].cancel()  # double cancel must not double count
    assert sim.pending_events() == 3
    sim.run_until(10.0)
    assert sim.pending_events() == 0


def test_cancel_after_firing_does_not_corrupt_counter():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.run_until(2.0)
    event.cancel()  # no-op on a fired event
    assert sim.pending_events() == 0


def test_heap_compaction_drops_cancelled_entries():
    sim = Simulator()
    keep = []
    cancelled = [sim.schedule(5.0, lambda: None) for _ in range(200)]
    survivor = sim.schedule(6.0, keep.append, "survivor")
    for event in cancelled:
        event.cancel()
    # Far more than COMPACT_MIN_CANCELLED dead entries: compaction must
    # have removed the bulk of them (a sub-threshold tail may remain).
    assert len(sim._queue) < 64
    assert sim.pending_events() == 1
    sim.run_until(10.0)
    assert keep == ["survivor"]
    assert survivor.fired


def test_compaction_during_drain_keeps_order():
    """Cancelling en masse from inside a callback (which triggers in-place
    compaction) must not disturb the events still due."""
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(5.0, fired.append, "doomed") for _ in range(150)]

    def cancel_all():
        fired.append("cancel")
        for event in doomed:
            event.cancel()

    sim.schedule(1.0, cancel_all)
    sim.schedule(2.0, fired.append, "after")
    sim.schedule_fast(3.0, fired.append, "fast-after")
    sim.run_until(10.0)
    assert fired == ["cancel", "after", "fast-after"]
    assert sim.pending_events() == 0


def test_events_executed_counts_both_paths():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule_fast(1.0, lambda: None)
    sim.run_until(2.0)
    assert sim.events_executed == 2
