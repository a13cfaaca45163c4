"""Tests for the seed-group executor (`repro.sim.batch.SeedBatchExecutor`).

A group's lanes run one after another, each to its own end time, so every
lane must end exactly as its seed does when run on its own, whatever the
shape of the group: its MAC, its topology, its end times, its parameters
and the collectors its lanes attach.
"""

from __future__ import annotations

import pytest

from repro.core.config import QmaConfig
from repro.experiments.testbed import prepare_topology_run
from repro.sim.batch import SeedBatchExecutor

FAST = {"packets_per_node": 2, "warmup": 0.5, "delta": 40.0, "max_duration": 4.0}
CONVERGENCE = ("pdr", "attempts", "convergence")


def _lanes(seeds, topology="iotlab-star", mac="qma", **overrides):
    kwargs = {**FAST, **overrides}
    return [prepare_topology_run(topology, mac=mac, seed=seed, **kwargs) for seed in seeds]


def _outcome(report):
    return report.scalars, report.tables, report.duration


def _solo(lanes):
    """Each lane run on its own, through ``PreparedTopologyRun.run``."""
    return [_outcome(lane.run()) for lane in lanes]


def _grouped(lanes):
    executor = SeedBatchExecutor()
    reports = executor.run(lanes)
    assert executor.last_fallback_reason is None
    return [_outcome(report) for report in reports]


def _lane_state(lane):
    """Events executed, the clock, and per MAC its Q-table and policy (QMA
    only) and the next draws of every named random stream."""
    sim = lane.sim
    nodes = {
        node_id: (mac.qtable.values_snapshot(), mac.policy_snapshot())
        for node_id, mac in lane.built.network.macs.items()
        if hasattr(mac, "qtable")
    }
    streams = {
        name: [stream.random() for _ in range(3)]
        for name, stream in sorted(sim.rng._streams.items())
    }
    return sim.events_executed, sim.now, nodes, streams


def test_an_empty_group_returns_no_reports():
    assert SeedBatchExecutor().run([]) == []


def test_a_single_lane_ends_as_its_solo_run():
    assert _grouped(_lanes([3])) == _solo(_lanes([3]))


@pytest.mark.parametrize("mac", ["qma", "unslotted-csma", "slotted-csma", "slotted-aloha"])
@pytest.mark.parametrize("topology", ["iotlab-star", "iotlab-tree"])
def test_group_reports_equal_solo_runs(topology, mac):
    seeds = [0, 1, 2]
    expected = _solo(_lanes(seeds, topology, mac))
    assert _grouped(_lanes(seeds, topology, mac)) == expected


def test_every_lane_counts_the_events_its_solo_run_executes():
    # Idle grids leap over boundaries without heap entries; each lane must
    # count only the boundaries its own solo run does.
    seeds = [0, 1, 2]
    solo = _lanes(seeds)
    for lane in solo:
        lane.run()
    grouped = _lanes(seeds)
    SeedBatchExecutor().run(grouped)
    assert [lane.sim.events_executed for lane in grouped] == [
        lane.sim.events_executed for lane in solo
    ]


def test_lanes_end_in_the_state_of_their_solo_runs():
    seeds = [0, 1, 2, 3]
    solo = _lanes(seeds)
    for lane in solo:
        lane.run()
    grouped = _lanes(seeds)
    SeedBatchExecutor().run(grouped)
    assert [_lane_state(lane) for lane in grouped] == [_lane_state(lane) for lane in solo]


def test_reports_keep_the_input_order():
    seeds = [2, 0, 1]
    reports = SeedBatchExecutor().run(_lanes(seeds))
    assert [report.params["seed"] for report in reports] == seeds
    assert [_outcome(report) for report in reports] == _solo(_lanes(seeds))


def test_lanes_with_different_end_times_each_stop_at_their_own():
    lanes = _lanes([0]) + _lanes([1], max_duration=3.0)
    assert [lane.end_time for lane in lanes] == [4.0, 3.0]
    expected = _solo(_lanes([0]) + _lanes([1], max_duration=3.0))
    assert _grouped(lanes) == expected
    assert [lane.sim.now for lane in lanes] == [4.0, 3.0]


def test_lanes_with_different_qma_parameters_match_their_solo_runs():
    def lanes():
        return _lanes([0]) + _lanes([1], qma_config=QmaConfig(learning_rate=0.25))

    assert _grouped(lanes()) == _solo(lanes())


def test_lanes_differing_in_collectors_match_their_solo_runs():
    def lanes():
        return _lanes([0]) + _lanes([1], collectors=CONVERGENCE)

    grouped = _grouped(lanes())
    assert grouped == _solo(lanes())
    assert "q_history" not in grouped[0][1] and "q_history" in grouped[1][1]


def test_convergence_histories_match_solo_runs():
    """The histories of the MACs the collector reads (the sources, not the
    sink) are recorded in a group as in solo runs."""
    seeds = [0, 1, 2]
    solo = _solo(_lanes(seeds, collectors=CONVERGENCE))
    lanes = _lanes(seeds, collectors=CONVERGENCE)
    grouped = _grouped(lanes)
    for (_, got, _), (_, expected, _) in zip(grouped, solo):
        for table in ("q_history", "rho_history"):
            assert all(expected[table].values())
            assert got[table] == expected[table]
    for lane in lanes:
        sink = lane.built.network.macs[lane.built.topology.sink]
        assert sink.q_history == [] and sink.rho_history == []


def test_a_lane_run_part_way_finishes_as_its_solo_run():
    lanes = _lanes([0, 1])
    lanes[0].sim.run_until(0.1)
    assert _grouped(lanes) == _solo(_lanes([0, 1]))
    assert [lane.sim.now for lane in lanes] == [4.0, 4.0]


def test_every_lane_runs_before_any_lane_finishes():
    calls = []

    class Recorded:
        def __init__(self, lane, index):
            self.lane, self.index, self.end_time = lane, index, lane.end_time

        @property
        def sim(self):
            calls.append(("run", self.index))
            return self.lane.sim

        def finish(self):
            calls.append(("finish", self.index))
            assert self.lane.sim.now == self.end_time
            return self.lane.finish()

    lanes = [Recorded(lane, index) for index, lane in enumerate(_lanes([0, 1, 2]))]
    reports = SeedBatchExecutor().run(lanes)
    assert calls == [("run", 0), ("run", 1), ("run", 2),
                     ("finish", 0), ("finish", 1), ("finish", 2)]
    assert [_outcome(report) for report in reports] == _solo(_lanes([0, 1, 2]))
