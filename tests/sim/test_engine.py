"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.mac.aloha import AlohaConfig, SlottedAloha
from repro.mac.tdma import Tdma, TdmaConfig
from repro.phy.channel import WirelessChannel
from repro.phy.radio import Radio
from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import PeriodicProcess
from repro.traffic.generators import PeriodicTraffic


def test_schedule_and_run_until_executes_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.run_until(10.0)
    assert fired == ["a", "b", "c"]
    assert sim.now == 10.0


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for label in ("first", "second", "third"):
        sim.schedule(1.0, fired.append, label)
    sim.run_until(1.0)
    assert fired == ["first", "second", "third"]


def test_run_until_does_not_execute_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.run_until(4.0)
    assert fired == []
    assert sim.pending_events() == 1
    sim.run_until(6.0)
    assert fired == ["late"]


def _process(sim):
    process = PeriodicProcess(sim, 0.01, lambda: None)
    return process, lambda: process.invocations


def _traffic(sim):
    generator = PeriodicTraffic(sim, lambda: None, period=0.01)
    return generator, lambda: generator.generated


def _slot_clock(mac_cls, config_cls):
    def build(sim):
        config = config_cls(slots_per_frame=1000, slot_duration=0.01)
        mac = mac_cls(sim, Radio(sim, WirelessChannel(sim), 0), config=config)
        return mac, lambda: mac._slot_index + 1

    return build


@pytest.mark.parametrize(
    "build, expected",
    [
        # First invocation one period after start: 0.015 .. 0.095.
        (_process, 9),
        (_traffic, 9),
        # First slot at start: 0.0 (first chain), then 0.005 .. 0.095.
        (_slot_clock(Tdma, TdmaConfig), 11),
        (_slot_clock(SlottedAloha, AlohaConfig), 11),
    ],
    ids=["periodic-process", "traffic-generator", "tdma", "slotted-aloha"],
)
def test_restarted_timer_runs_exactly_one_chain(build, expected):
    """Events cannot be cancelled: stop() bumps the timer's epoch and the
    pending event fires stale.  Restarting before that event is due must
    still leave exactly one chain running."""
    sim = Simulator(seed=1)
    timer, count = build(sim)
    timer.start()
    sim.run_until(0.005)
    timer.stop()
    timer.start()  # the stopped chain's next event is due at t=0.01
    sim.run_until(0.1)
    assert count() == expected


def test_schedule_in_the_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-0.5, lambda: None)


def test_events_scheduled_during_execution_run_in_order():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(0.5, lambda: fired.append("inner"))

    sim.schedule(1.0, outer)
    sim.schedule(2.0, lambda: fired.append("later"))
    sim.run_until(3.0)
    assert fired == ["outer", "inner", "later"]


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, "b")
    sim.run_until(10.0)
    assert fired == ["a"]
    assert sim.now == 2.0


def test_run_executes_until_queue_empty():
    sim = Simulator()
    count = []
    sim.schedule(1.0, count.append, 1)
    sim.schedule(4.0, count.append, 2)
    sim.run()
    assert count == [1, 2]
    assert sim.now == 4.0


def test_events_executed_counter():
    sim = Simulator()
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda: None)
    sim.run_until(10.0)
    assert sim.events_executed == 3


def test_trace_recording(sim_trace=None):
    sim = Simulator(trace=True)
    sim.schedule(1.0, lambda: sim.record("test", value=7))
    sim.run_until(2.0)
    records = sim.tracer.by_category("test")
    assert len(records) == 1
    assert records[0]["value"] == 7
    assert records[0].time == 1.0


def test_invalid_end_time_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.run_until(1.0)
