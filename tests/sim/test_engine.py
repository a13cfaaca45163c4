"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.mac import _idle_boundary
from repro.mac.aloha import AlohaConfig, SlottedAloha
from repro.mac.tdma import Tdma, TdmaConfig
from repro.phy.channel import WirelessChannel
from repro.phy.radio import Radio
from repro.scenario import ScenarioConfig, build_scenario
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


#: Unbounded runs of QMA networks; run in a child process so that a run
#: that never ends fails the test by its timeout instead of hanging it.
UNBOUNDED_RUNS = """
import json, math
from repro.experiments import hidden_node
from repro.scenario import ScenarioConfig, build_scenario
from repro.sim.engine import Simulator

# Idle QMA nodes only: their grid always has a next boundary.
built = build_scenario(ScenarioConfig(mac="qma"))
built.network.start()
built.sim.run_until(1.0)
built.sim.run_until(math.inf)
ended = built.sim.now
built.sim.run_until(ended + 1.0)  # the grid carries on from where the run ended

def delivered(run_until):
    Simulator.run_until = run_until
    report = hidden_node.run_hidden_node(
        mac="qma", delta=10.0, packets_per_node=30, warmup=5.0, seed=1
    )
    return report.scalars["packets_delivered"], report.duration

bounded, run_until = delivered(Simulator.run_until), Simulator.run_until
print(json.dumps({
    "ended": ended,
    "after": built.sim.now,
    "bounded": bounded,
    "run": delivered(lambda sim, end: sim.run()),
    "infinite": delivered(lambda sim, end: run_until(sim, math.inf)),
}))
"""


def _run_child(script: str) -> dict:
    """Run ``script`` in a child process with a 20 s timeout; its stdout
    is one JSON object."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_an_unbounded_qma_run_ends_once_only_idle_boundaries_remain():
    """``run()`` and ``run_until(math.inf)`` end when no grid member has
    work and no other event is queued, after every packet was delivered."""
    out = _run_child(UNBOUNDED_RUNS)
    assert 1.0 < out["ended"] < 2.0
    assert out["after"] == out["ended"] + 1.0
    (packets, end), (run_packets, run_end) = out["bounded"], out["run"]
    assert packets == 60.0
    assert out["run"] == out["infinite"]
    assert run_packets == packets and run_end < end


#: An unbounded run of idle QMA nodes with one plain event far ahead.
UNBOUNDED_RUN_WITH_A_LATE_EVENT = """
import json, math
from repro.scenario import ScenarioConfig, build_scenario

built = build_scenario(ScenarioConfig(mac="qma"))
sim = built.sim
fired = []
sim.schedule_at(50.0, lambda: fired.append(sim.now))
built.network.start()
sim.run_until(math.inf)
print(json.dumps({"fired": fired, "ended": sim.now}))
"""


def test_an_unbounded_run_does_not_end_before_a_queued_event():
    """Idle boundaries alone end an unbounded run: one plain event queued
    behind them still fires, and the run ends at the boundary after it."""
    out = _run_child(UNBOUNDED_RUN_WITH_A_LATE_EVENT)
    assert out["fired"] == [50.0]
    assert 50.0 < out["ended"] < 51.0


def _queued(sim):
    """Each queued entry's callback name and whether it is an idle boundary."""
    return sorted((entry[2].__qualname__, _idle_boundary(entry)) for entry in sim._queue)


def test_only_boundaries_of_grids_with_no_member_due_are_idle():
    built = build_scenario(ScenarioConfig(mac="qma"))
    for node in built.network.sources():
        built.poisson_source(node.node_id, rate=20.0, start_time=1.0, max_packets=5,
                             rng_name=f"late-{node.node_id}", start_at=1.0)
    built.network.start()
    built.sim.run_until(0.5)  # every node idle before its traffic starts
    assert _queued(built.sim) == [("TrafficGenerator.start", False)] * 2 + [
        ("_SubslotGrid._boundary", True)
    ]
    built.sim.run_until(1.3)  # packets queued: the grid has members due
    assert ("_SubslotGrid._boundary", False) in _queued(built.sim)
    assert not any(idle for _, idle in _queued(built.sim))
