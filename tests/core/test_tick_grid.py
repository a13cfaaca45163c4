"""The QMA grid clock: one heap entry per subslot boundary, idle nodes off
the loop, idle grids leaping.

Nodes that start together tick on one subslot grid, in ``start()`` order.
Only nodes with work take turns; an idle node leaves the loop, rejoins it
at its rank on its next enqueue and catches up its clock fields when they
are read.  A grid with no member due passes the boundaries before the
heap's head and the end of the ``run_until`` in progress without heap
entries.  Events must still run exactly as with one heap entry per tick.
"""

from __future__ import annotations

import copy

from repro.core.config import QmaConfig
from repro.core.mac import QmaMac, _SubslotGrid
from repro.mac.gate import WindowedGate
from repro.phy.channel import WirelessChannel
from repro.phy.frames import Frame, FrameKind
from repro.phy.radio import Radio
from repro.sim.engine import Simulator

SUBSLOT = 2e-3


def _config(**overrides):
    defaults = dict(num_subslots=8, subslot_duration=SUBSLOT, cautious_startup_subslots=0)
    defaults.update(overrides)
    return QmaConfig(**defaults)


def _radios(sim, count):
    """``count`` fully connected radios with ids 1..count."""
    channel = WirelessChannel(sim)
    radios = [Radio(sim, channel, node) for node in range(1, count + 1)]
    for a in radios:
        for b in radios:
            if a.node_id < b.node_id:
                channel.connect(a.node_id, b.node_id)
    return radios


def _recording(mac):
    """``mac``, recording its histories."""
    mac.record_history()
    return mac


def _macs(sim, count=3, gate=None, **overrides):
    """``count`` fully connected QMA nodes with ids 1..count, recording
    their histories, not started."""
    return [
        _recording(QmaMac(sim, radio, config=_config(**overrides), gate=gate))
        for radio in _radios(sim, count)
    ]


def _frame(src=1, dst=2):
    return Frame(FrameKind.DATA, src=src, dst=dst, payload_bytes=20)


def _grid_entries(sim):
    """``(time, callback name, grid)`` of every grid entry on the heap, in key order."""
    return [
        (entry[0], entry[2].__name__, entry[2].__self__)
        for entry in sorted(sim._queue, key=lambda entry: entry[:2])
        if isinstance(getattr(entry[2], "__self__", None), _SubslotGrid)
    ]


def _boundary_time(index):
    """The grid's ``index``-th boundary time, summed as the grid sums it."""
    time = 0.0
    for _ in range(index):
        time += SUBSLOT
    return time


def _ticks(macs):
    return [mac.subslot_ticks for mac in macs]


def test_idle_nodes_leave_the_loop_and_an_idle_grid_leaps_to_the_run_end():
    sim = Simulator(seed=1)
    macs = _macs(sim)
    for mac in macs:
        mac.start()
    (grid,) = sim._grids.values()
    assert [mac._rank for mac in grid.members] == sorted(mac._rank for mac in macs)
    sim.run_until(_boundary_time(10))
    # Every node's first turn was idle: the grid leapt from boundary 0 to
    # the run's end, boundary 10, which took the run's only other entry.
    assert not grid.due and not any(mac._on_loop for mac in macs)
    assert sim.events_executed == 2
    # Joins, first turns, the leap's mark and boundary 10's idle key.
    assert next(copy.copy(sim._seq)) == 3 + 3 + 1 + 1
    assert [(time, name) for time, name, _ in _grid_entries(sim)] == [
        (_boundary_time(11), "_boundary")
    ]
    # The clock fields catch up when read.
    assert _ticks(macs) == [11, 11, 11]
    assert [mac.frames_elapsed for mac in macs] == [2, 2, 2]
    assert [mac.current_subslot for mac in macs] == [2, 2, 2]
    assert [t for t, _ in macs[0].q_history] == [0.0, _boundary_time(8)]


def test_enqueue_keyed_before_a_boundary_runs_at_it_and_one_keyed_after_at_the_next():
    sim = Simulator(seed=4)
    mac1, mac2 = _macs(sim, 2)
    boundary = _boundary_time(5)
    # Drawn before the grid keys boundary 5, at boundary 4: keyed before it.
    sim.schedule_at(boundary, mac1.send, _frame(1, 2))
    # Drawn by an event between boundaries 4 and 5: keyed after boundary 5.
    sim.schedule_at(
        boundary - SUBSLOT / 2, lambda: sim.schedule_at(boundary, mac2.send, _frame(2, 1))
    )
    mac1.start()
    mac2.start()
    sim.run_until(boundary + 2 * SUBSLOT)
    assert [t for t, _ in mac1.rho_history][0] == boundary
    assert [t for t, _ in mac2.rho_history][0] == boundary + SUBSLOT
    assert mac1.action_stats.total >= 1 and mac2.action_stats.total >= 1
    assert _ticks((mac1, mac2)) == [8, 8]


def test_event_between_two_starts_runs_between_their_first_turns():
    sim = Simulator(seed=1)
    mac1, mac2 = _macs(sim, 2)
    seen = []
    mac1.start()
    sim.schedule(0.0, lambda: seen.append(_ticks((mac1, mac2))))
    mac2.start()
    # One grid entry for both t=0 turns, plus the probe keyed between them.
    assert sim.pending_events() == 2

    # The probe is due at the boundary's instant: the boundary fires it
    # between the two turns, within one step.
    assert sim.step()
    assert seen == [[1, 0]]
    assert _ticks((mac1, mac2)) == [1, 1]
    assert sim.events_executed == 2
    # 2 joins, the probe, mac1's and mac2's marks.
    assert next(copy.copy(sim._seq)) == 5
    assert [name for _, name, _ in _grid_entries(sim)] == ["_boundary"]


def test_an_enqueue_keyed_between_two_turns_reaches_only_the_later_one():
    sim = Simulator(seed=8)
    mac1, mac2 = _macs(sim, 2)
    turn = mac2._on_subslot

    def first_turn_schedules_enqueues(subslot):
        if sim.now == 0.0:
            # Drawn during mac2's turn, before its mark: at the next
            # boundary both run after mac1's turn and before mac2's.
            sim.schedule(SUBSLOT, mac2.send, _frame(2, 1))
            sim.schedule(SUBSLOT, mac1.send, _frame(1, 2))
        turn(subslot)

    mac2._on_subslot = first_turn_schedules_enqueues
    mac1.start()
    mac2.start()
    sim.run_until(_boundary_time(3))
    assert mac2.rho_history[0][0] == SUBSLOT  # its turn there was still to come
    assert mac1.rho_history[0][0] == _boundary_time(2)  # its turn there was over
    assert _ticks((mac1, mac2)) == [4, 4]


def test_an_idle_turn_keeps_its_place_behind_an_event_drawn_before_it():
    sim = Simulator(seed=9)
    mac1, mac2, mac3 = _macs(sim)
    turn = mac2._on_subslot

    def enqueue_for_mac2_at_boundary_2():
        # Drawn at boundary 1 after mac1's turn and before mac2's idle one.
        sim.schedule(SUBSLOT, mac2.send, _frame(2, 1))
        mac3.stop()  # before its turn at boundary 1

    def first_turn(subslot):
        if sim.now == 0.0:
            # Keyed between mac1's and mac2's turns at boundary 1.
            sim.schedule(SUBSLOT, enqueue_for_mac2_at_boundary_2)
        turn(subslot)

    mac2._on_subslot = first_turn
    sim.schedule(SUBSLOT / 2, mac1.send, _frame(1, 3))  # mac1 busy at boundary 1
    for mac in (mac1, mac2, mac3):
        mac.start()
    sim.run_until(_boundary_time(3))
    assert mac1.rho_history[0][0] == SUBSLOT
    assert mac2.rho_history[0][0] == _boundary_time(2)
    assert (mac3.subslot_ticks, mac3.current_subslot) == (1, 0)


def test_a_rejoining_node_catches_up_its_clock_fields():
    sim = Simulator(seed=5)
    mac1, mac2 = _macs(sim, 2)
    for mac in (mac1, mac2):
        mac.start()
    sim.run_until(_boundary_time(12) - SUBSLOT / 2)
    mac1.send(_frame(1, 2))  # rejoins for boundary 12
    assert mac1._on_loop and mac1._counter == 12  # caught up to boundary 11
    sim.run_until(_boundary_time(30))
    assert _ticks((mac1, mac2)) == [31, 31]
    assert mac1.frames_elapsed == mac2.frames_elapsed == 4
    assert mac1.current_subslot == mac2.current_subslot == 6
    assert [t for t, _ in mac1.q_history] == [t for t, _ in mac2.q_history]
    assert mac1.rho_history[0][0] == _boundary_time(12)


def test_backfilled_frame_starts_carry_the_q_value_the_node_left_the_loop_with():
    sim = Simulator(seed=5)
    (mac,) = _macs(sim, 1, cautious_startup_subslots=10)
    initial = mac.qtable.cumulative_policy_value()
    mac.start()
    # Startup observes boundaries 0-9; the turn at 10 learns from the last
    # observation and, with an empty queue, takes the node off the loop.
    sim.run_until(_boundary_time(11))
    assert not mac._on_loop
    learned = mac.qtable.cumulative_policy_value()
    assert learned != initial
    sim.run_until(_boundary_time(40))
    values = [v for _, v in mac.q_history]
    assert len(values) == 6 and values[0] == initial
    assert values[2:] == [learned] * 4  # frames 16 to 40, all backfilled


def _reference_boundaries(gate, end):
    """``(time, subslot)`` of every boundary up to ``end``, stepped one
    subslot at a time as the per-node clock did."""
    time, subslot, boundaries = max(gate.next_active_time(0.0), 0.0), 0, []
    while time <= end:
        boundaries.append((time, subslot))
        time += SUBSLOT
        subslot = (subslot + 1) % 8
        if not gate.active(time):
            time, subslot = gate.next_active_time(time), 0
    return boundaries


def test_cap_gate_jumps_to_the_next_window_for_busy_and_idle_nodes():
    # A CAP of 3 subslots every 10: each window opens a frame at subslot 0.
    gate = WindowedGate(period=10 * SUBSLOT, window=3 * SUBSLOT, offset=SUBSLOT)
    sim = Simulator(seed=6)
    busy, idle = _macs(sim, 2, gate=gate)
    for k in range(40):
        sim.schedule(k * SUBSLOT, busy.send, _frame(1, 2))
    busy.start()
    idle.start()
    end = 0.1
    sim.run_until(end)
    expected = _reference_boundaries(gate, end)
    assert expected[0][0] == SUBSLOT and expected[3] == (expected[0][0] + 10 * SUBSLOT, 0)
    frame_starts = [time for time, subslot in expected if subslot == 0]
    for mac in (busy, idle):
        assert mac.subslot_ticks == len(expected)
        assert mac.frames_elapsed == len(frame_starts)
        assert mac.current_subslot == expected[-1][1]
        assert [t for t, _ in mac.q_history] == frame_starts
    assert busy.action_stats.total > 0 and idle.action_stats.total == 0
    assert all(gate.active(t) for t, _ in busy.rho_history)
    (next_boundary,) = _grid_entries(sim)
    assert next_boundary[0] == _reference_boundaries(gate, 0.2)[len(expected)][0]


def test_idle_members_after_one_mark_keep_their_order_when_an_event_is_due_now():
    # After the first boundary every node is idle, so only mac1 draws a mark
    # per boundary; at boundary 5 events keyed after its entry are due, so
    # mac2-mac4 are visited one by one behind that one mark.
    sim = Simulator(seed=4)
    macs = _macs(sim, 4)
    boundary = _boundary_time(5)
    sim.schedule_at(boundary, macs[2].send, _frame(3, 1))  # keyed before the boundary

    def enqueue_after_the_boundary():
        sim.schedule_at(boundary, macs[3].send, _frame(4, 1))
        sim.schedule_at(boundary, macs[1].send, _frame(2, 1))

    sim.schedule_at(boundary - SUBSLOT / 2, enqueue_after_the_boundary)
    for mac in macs:
        mac.start()
    sim.run_until(_boundary_time(9))
    # The same values as with one heap entry per tick.
    assert [mac.rho_history[0][0] if mac.rho_history else None for mac in macs] == [
        None, _boundary_time(6), boundary, _boundary_time(6)
    ]
    assert _ticks(macs) == [10, 10, 10, 10]
    assert [mac.qtable.updates for mac in macs] == [0, 3, 4, 3]


def test_stop_inside_a_boundary_after_idle_boundaries_resumes_at_the_next_turn():
    sim = Simulator(seed=3)
    macs = _macs(sim, 4)
    boundary = _boundary_time(6)
    turn = macs[1]._on_subslot

    def turn_schedules_a_stop(subslot):
        if sim.now == boundary:
            # Drawn during mac2's turn: keyed before its turn at boundary 7.
            sim.schedule(SUBSLOT, sim.stop)
        turn(subslot)

    macs[1]._on_subslot = turn_schedules_a_stop
    sim.schedule_at(boundary - SUBSLOT / 2, macs[1].send, _frame(2, 1))
    for mac in macs:
        mac.start()
    sim.run_until(0.05)
    assert sim.now == _boundary_time(7)
    assert _ticks(macs) == [8, 7, 7, 7]
    # The rest of the boundary waits on one entry keyed by mac2's mark.
    (grid,) = {mac._grid for mac in macs}
    assert [(time, name) for time, name, _ in _grid_entries(sim)] == [(sim.now, "_walk")]
    assert [entry[1] for entry in sim._queue if entry[0] == sim.now] == [grid.bounds[1][1]]
    assert grid.bounds[1][0] == macs[1]._rank
    macs[2].send(_frame(3, 4))  # its turn at the stopped boundary is still to come
    sim.run_until(0.05)
    # The same values as with one heap entry per tick.
    assert [mac.rho_history[0][0] if mac.rho_history else None for mac in macs] == [
        None, boundary, _boundary_time(7), None
    ]
    assert _ticks(macs) == [25, 25, 25, 25]
    assert [mac.qtable.updates for mac in macs] == [0, 18, 17, 0]


def test_restart_between_two_turns_ticks_once_there_on_its_new_grid():
    sim = Simulator(seed=7)
    mac1, mac2, mac3 = macs = _macs(sim)
    turn = mac2._on_subslot

    def restart():
        mac3.stop()
        mac3.start()

    def turn_schedules_a_restart(subslot):
        if sim.now == _boundary_time(3):
            # Drawn during mac2's turn: keyed before mac3's turn at boundary 4.
            sim.schedule(SUBSLOT, restart)
        turn(subslot)

    mac2._on_subslot = turn_schedules_a_restart
    sim.schedule_at(_boundary_time(3) - SUBSLOT / 2, mac2.send, _frame(2, 1))
    for mac in macs:
        mac.start()
    sim.run_until(_boundary_time(4))
    # mac3 skips its turn on the old grid and takes boundary 4 on the new one.
    assert _ticks(macs) == [5, 5, 5]
    for k in range(6):
        sim.schedule(k * SUBSLOT, mac2.send, _frame(2, 1))
        sim.schedule(k * SUBSLOT, mac3.send, _frame(3, 1))
    sim.run_until(_boundary_time(12))
    # The same values as with one heap entry per tick.
    assert _ticks(macs) == [13, 13, 13]
    assert [mac.rho_history[0][0] for mac in (mac2, mac3)] == [
        _boundary_time(3), _boundary_time(5)
    ]
    assert [mac.qtable.updates for mac in macs] == [0, 9, 6]


def test_member_stop_and_an_off_grid_restart_on_a_grid_of_its_own():
    sim = Simulator(seed=2)
    mac1, mac2, mac3 = macs = _macs(sim)
    for mac in macs:
        mac.start()
    sim.run_until(0.021)
    assert _ticks(macs) == [11, 11, 11]

    mac2.stop()
    (grid,) = {entry[2] for entry in _grid_entries(sim)}
    assert grid.members == [mac1, mac3] and mac2._grid is None
    sim.run_until(0.041)
    # The stopped node's clock froze; the others kept ticking.  The idle
    # grid ran boundary 0 and leapt to the first boundary after each run's
    # end, which the next run took.
    assert _ticks(macs) == [21, 11, 21]
    assert sim.events_executed == 2

    mac2.start()  # at t=0.041, off the 2 ms grid
    assert mac2._grid is not grid and mac2._grid.members == [mac2]
    assert [(name, g is grid) for _, name, g in _grid_entries(sim)] == [
        ("_open", False), ("_boundary", True)
    ]
    sim.run_until(0.0605)
    assert _ticks(macs) == [31, 21, 31]
    # The two grids' boundaries interleave, so each is the other's heap
    # head and neither leaps.
    assert sim.events_executed == 2 + 10 + 10


def test_restart_at_a_boundary_already_run_forms_a_later_grid_on_the_same_instants():
    sim = Simulator(seed=7)
    mac1, mac2 = _macs(sim, 2)
    mac1.start()
    mac2.start()
    boundary = _boundary_time(4)

    def restart():
        mac2.stop()
        mac2.start()

    # Keyed after boundary 4: mac2 restarts once its turn there is over.
    sim.schedule_at(boundary - SUBSLOT / 2, lambda: sim.schedule_at(boundary, restart))
    sim.run_until(boundary)
    first, second = (entry[2] for entry in _grid_entries(sim))
    assert first.members == [mac1] and second.members == [mac2]
    assert mac2.subslot_ticks == 6  # boundaries 0-4, then its restart's first
    for k in range(6):
        sim.schedule(k * SUBSLOT, mac1.send, _frame(1, 2))
        sim.schedule(k * SUBSLOT, mac2.send, _frame(2, 1))
    sim.run_until(_boundary_time(12))
    # Both grids tick on the same instants, the restarted one second.
    assert [t for t, _ in mac1.rho_history][:3] == [t for t, _ in mac2.rho_history][:3]
    assert _ticks((mac1, mac2)) == [13, 14]
    assert mac2.current_subslot == 0 and mac1.current_subslot == 4


# Leaps.  Every expected value but ``events_executed`` is a literal taken
# from the per-boundary clock, which gave every boundary a heap entry.


def test_a_leap_across_frame_starts_backfills_q_history_with_the_learned_value():
    sim = Simulator(seed=5)
    macs = _macs(sim, 2, cautious_startup_subslots=10)
    for mac in macs:
        mac.start()
    sim.run_until(_boundary_time(60))
    # Boundaries 0-10 run the startup; then the grid leaps to boundary 60.
    assert sim.events_executed == 12  # 61 with an entry per boundary
    for mac in macs:
        assert mac.q_history == [
            (0.0, -80.0), (0.016, -76.5), (0.032000000000000015, -74.825),
            (0.04800000000000003, -74.825), (0.06400000000000004, -74.825),
            (0.08000000000000006, -74.825), (0.09600000000000007, -74.825),
            (0.11200000000000009, -74.825),
        ]
    assert _ticks(macs) == [61, 61]
    assert [mac.frames_elapsed for mac in macs] == [8, 8]
    assert [mac.current_subslot for mac in macs] == [4, 4]
    assert [mac.qtable.updates for mac in macs] == [10, 10]
    assert [(time, name) for time, name, _ in _grid_entries(sim)] == [
        (0.1220000000000001, "_boundary")
    ]


def test_a_gated_grid_leaps_over_cap_gaps_to_the_window_of_an_enqueue():
    gate = WindowedGate(period=10 * SUBSLOT, window=3 * SUBSLOT, offset=SUBSLOT)
    sim = Simulator(seed=6)
    mac1, mac2 = macs = _macs(sim, 2, gate=gate)
    sim.schedule_at(0.0615, mac1.send, _frame(1, 2))  # in the fourth window
    for mac in macs:
        mac.start()
    sim.run_until(0.1)
    assert sim.events_executed == 8  # 16 with an entry per boundary
    assert _ticks(macs) == [15, 15]
    assert [mac.frames_elapsed for mac in macs] == [5, 5]
    assert [mac.current_subslot for mac in macs] == [2, 2]
    for mac in macs:
        assert [t for t, _ in mac.q_history] == [0.002, 0.022, 0.042, 0.062, 0.082]
    assert [t for t, _ in mac1.rho_history] == [
        0.062, 0.064, 0.066, 0.082, 0.084, 0.08600000000000001
    ]
    assert [time for time, _, _ in _grid_entries(sim)] == [0.10200000000000001]


def test_a_run_cut_between_skipped_boundaries_reads_the_clock_at_the_cut():
    sim = Simulator(seed=2)
    macs = _macs(sim)
    for mac in macs:
        mac.start()
    sim.run_until(_boundary_time(10) + SUBSLOT / 3)
    assert sim.events_executed == 1  # boundary 11's entry lies past the cut
    assert _ticks(macs) == [11, 11, 11]
    assert [mac.current_subslot for mac in macs] == [2, 2, 2]
    assert [mac.frames_elapsed for mac in macs] == [2, 2, 2]
    assert [[t for t, _ in mac.q_history] for mac in macs] == [[0.0, 0.016]] * 3
    macs[1].send(_frame(2, 1))  # at the cut: due at boundary 11
    sim.run_until(_boundary_time(20))
    assert sim.events_executed == 11  # 21 with an entry per boundary
    assert macs[1].rho_history[0][0] == 0.022000000000000006
    assert _ticks(macs) == [21, 21, 21]
    assert [mac.qtable.updates for mac in macs] == [0, 9, 0]


def test_an_enqueue_from_the_event_that_ends_a_leap_runs_at_the_next_boundary():
    sim = Simulator(seed=3)
    macs = _macs(sim)
    sim.schedule_at(_boundary_time(7) + SUBSLOT / 4, macs[2].send, _frame(3, 1))
    for mac in macs:
        mac.start()
    sim.run_until(_boundary_time(14))
    assert sim.events_executed == 9  # 16 with an entry per boundary
    assert macs[2].rho_history[0][0] == 0.016
    assert _ticks(macs) == [15, 15, 15]
    assert [mac.current_subslot for mac in macs] == [6, 6, 6]
    assert [mac.qtable.updates for mac in macs] == [0, 0, 6]


def test_an_event_due_at_the_first_boundary_after_a_leap_walks_it(monkeypatch):
    sim = Simulator(seed=4)
    macs = _macs(sim)
    walks = []
    walk = _SubslotGrid._walk

    def spy(grid):
        walks.append(sim.now)
        walk(grid)

    def end_the_leap():
        macs[1].send(_frame(2, 1))
        # Drawn after boundary 8's mark: keyed after all its turns.
        sim.schedule_at(_boundary_time(8), macs[0].send, _frame(1, 3))

    monkeypatch.setattr(_SubslotGrid, "_walk", spy)
    sim.schedule_at(_boundary_time(7) + SUBSLOT / 2, end_the_leap)
    for mac in macs:
        mac.start()
    sim.run_until(_boundary_time(14))
    assert walks == [0.016]
    assert sim.events_executed == 10  # 17 with an entry per boundary
    assert [[t for t, _ in mac.rho_history][:1] for mac in macs] == [
        [0.018000000000000002], [0.016], []
    ]
    assert _ticks(macs) == [15, 15, 15]
    assert [mac.qtable.updates for mac in macs] == [5, 6, 0]


def test_a_grid_rearmed_inside_another_grids_walk_does_not_leap():
    # mac2 ticks on the same instants as mac1 and mac3 but on a grid of its
    # own (4 subslots, not 8), keyed between their turns: each boundary of
    # its grid runs in the walk of theirs.
    sim = Simulator(seed=9)
    mac1, mac2, mac3 = macs = [
        _recording(QmaMac(sim, radio, config=_config(num_subslots=4 if radio.node_id == 2 else 8)))
        for radio in _radios(sim, 3)
    ]
    turn = mac3._on_subslot

    def first_turn_schedules_an_enqueue(subslot):
        if sim.now == 0.0:
            # Drawn after mac2's grid re-armed from its first boundary.
            sim.schedule(SUBSLOT / 2, mac2.send, _frame(2, 1))
        turn(subslot)

    mac3._on_subslot = first_turn_schedules_an_enqueue
    for mac in macs:
        mac.start()
    sim.run_until(_boundary_time(10))
    assert mac1._grid is mac3._grid is not mac2._grid
    assert [t for t, _ in mac2.rho_history][:2] == [0.002, 0.004]
    assert _ticks(macs) == [11, 11, 11]
    assert [mac.current_subslot for mac in macs] == [2, 2, 2]
    assert [mac.qtable.updates for mac in macs] == [0, 9, 0]
    assert sim.events_executed == 23  # neither grid leaps: each bounds the other


def test_step_runs_one_boundary_at_a_time_and_never_leaps():
    sim = Simulator(seed=1)
    macs = _macs(sim, 2)
    for mac in macs:
        mac.start()
    seen = []
    for _ in range(6):
        assert sim.step()
        seen.append((sim.now, sim.events_executed, _ticks(macs)))
    assert seen == [
        (0.0, 1, [1, 1]), (0.002, 2, [2, 2]), (0.004, 3, [3, 3]),
        (0.006, 4, [4, 4]), (0.008, 5, [5, 5]), (0.01, 6, [6, 6]),
    ]
    assert [(time, name) for time, name, _ in _grid_entries(sim)] == [(0.012, "_boundary")]


def test_a_rearm_after_stop_does_not_leap_past_events_scheduled_before_the_next_run():
    sim = Simulator(seed=8)
    macs = _macs(sim)
    turn = macs[2]._on_subslot

    def last_turn_stops(subslot):
        turn(subslot)
        if sim.now == 0.0:
            sim.stop()

    macs[2]._on_subslot = last_turn_stops
    for mac in macs:
        mac.start()
    sim.run_until(0.05)
    # Every member is idle, yet the grid re-armed for boundary 1 only.
    assert sim.now == 0.0 and _ticks(macs) == [1, 1, 1]
    assert [(time, name) for time, name, _ in _grid_entries(sim)] == [(0.002, "_boundary")]
    sim.schedule_at(_boundary_time(5) + SUBSLOT / 2, macs[1].send, _frame(2, 1))
    sim.run_until(_boundary_time(10))
    assert sim.events_executed == 8  # 12 with an entry per boundary
    assert macs[1].rho_history[0][0] == 0.012
    assert _ticks(macs) == [11, 11, 11]
    assert [mac.qtable.updates for mac in macs] == [0, 4, 0]


def _stop_run(interrupt: bool):
    sim = Simulator(seed=3)
    mac1, mac2, mac3 = _macs(sim)
    for k in range(6):
        sim.schedule(0.004 * k, mac1.send, _frame())
    mac1.start()
    if interrupt:
        sim.schedule(0.0, sim.stop)
    mac2.start()
    mac3.start()
    return sim, (mac1, mac2, mac3)


#: events_executed, seqs drawn, per-node ticks, mac1's deliveries and
#: per-node Q-table updates after the resumed run.
PINNED_STOP_RUN = (41, 45, [25, 25, 25], 2, [24, 0, 0])


def test_stop_inside_a_boundary_leaves_its_remaining_turns_pending():
    sim, macs = _stop_run(interrupt=True)
    sim.run_until(0.05)
    assert sim.now == 0.0
    assert _ticks(macs) == [1, 0, 0]
    # The remaining turns wait on one entry keyed by mac2's join.
    assert [(time, name) for time, name, _ in _grid_entries(sim)] == [(0.0, "_walk")]
    assert [entry[1] for entry in sim._queue if entry[0] == 0.0] == [macs[1]._rank]
    # A step after the stopped run finishes the boundary.
    assert sim.step() and _ticks(macs) == [1, 1, 1]

    sim.run_until(0.05)
    counters = (
        sim.events_executed,
        next(copy.copy(sim._seq)),
        _ticks(macs),
        macs[0].stats.tx_success,
        [mac.qtable.updates for mac in macs],
    )
    assert counters == PINNED_STOP_RUN
    # The same run without the interrupting event: no stop event and no
    # entry to resume the t=0 boundary from.
    sim, macs = _stop_run(interrupt=False)
    sim.run_until(0.05)
    assert sim.events_executed == PINNED_STOP_RUN[0] - 2
    assert _ticks(macs) == PINNED_STOP_RUN[2]
    assert [mac.qtable.updates for mac in macs] == PINNED_STOP_RUN[4]
