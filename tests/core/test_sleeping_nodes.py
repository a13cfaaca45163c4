"""Sleeping QMA nodes against nodes that never sleep.

A QMA node whose next turns will all be QBackoff selections or
cautious-startup observations sleeps through them: it takes no turn and
replays those turns only when it wakes or when an event it can observe
arrives (``QmaMac._sleep``, README "Grid clock").  Every program here runs
twice: with the real MAC, and with a subclass whose ``_sleep`` plans
nothing, so that every turn is a real one.  Per node, every turn's
``(time, subslot)`` (real or replayed), the clock fields, both histories,
the Q-table, the policy, the action statistics and the RNG state must
agree after every ``run_until`` cut and every ``step()``, read first
straight from the fields and then through the catching-up properties, and
so must ``events_executed``: a boundary the grid passes without a heap
entry still counts as one.  Only the seqs drawn may differ.
"""

from __future__ import annotations

import copy
import dataclasses
from collections import defaultdict
from typing import Any, Dict, List, Tuple
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign.runner import execute_scenario
from repro.core import mac as mac_module
from repro.core.config import DEFAULT_EXPLORATION_TABLE, QmaConfig
from repro.core.exploration import ConstantEpsilon, EpsilonGreedy, ParameterBasedExploration
from repro.core.mac import QmaMac
from repro.mac.gate import WindowedGate
from repro.phy.channel import WirelessChannel
from repro.phy.frames import BROADCAST, Frame, FrameKind
from repro.phy.radio import Radio
from repro.scenario.builder import ScenarioBuilder
from repro.sim.engine import Simulator

from test_tick_counters import DEFAULT_METRICS, RUNS

SUBSLOT = 2e-3


def _replayed(mac: QmaMac, count: int) -> List[Tuple[float, int]]:
    """The ``(time, subslot)`` of the next ``count`` turns ``mac`` replays:
    its grid timeline's boundaries from its synced tick on, up to its wake."""
    grid, first = mac._grid, mac._synced_ticks
    end = min(first + count, mac._wake - 1)
    return list(zip(grid.times[first:end], grid.subslots[first:end]))


class LoggedMac(QmaMac):
    """Logs the ``(time, subslot)`` of every turn, real or replayed."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.turns: List[Tuple[float, int]] = []

    def _on_subslot(self, subslot: int) -> None:
        self.turns.append((self.sim.now, subslot))
        super()._on_subslot(subslot)

    def _replay(self, count: int) -> None:
        self.turns.extend(_replayed(self, count))
        super()._replay(count)


class AwakeMac(LoggedMac):
    """Never sleeps: the reference every sleeping node must match."""

    def _sleep(self, grid: Any) -> bool:
        return False


def _state(mac: QmaMac, turns: List[Tuple[float, int]]) -> Tuple:
    """What a reader can see of one node: the plain fields first (exact
    after a ``run_until`` without any catch-up), then the properties."""
    qtable, stats = mac.qtable, mac.action_stats
    return (
        mac._rng.getstate(),
        copy.deepcopy(qtable._values), list(qtable._policy), qtable.updates,
        list(stats.counts), stats.random_selections,
        list(mac.rho_history),
        mac._on_loop, mac._pend_kind, mac._pend_state,
        mac.subslot_ticks, mac.frames_elapsed, mac.current_subslot,
        list(mac.q_history), mac.policy_snapshot(),
        sorted(turns),
    )


# ------------------------------------------------------------ campaign runs
#: The QMA MACs of a built scenario, by experiment.
RUNS_MACS = {
    "hidden-node": lambda built: built.network.macs,
    "scalability": lambda built: built.dsme.network.macs,
    "sinr-hidden-node": lambda built: built.network.macs,
}


def _run_logged(scenario: Any, sleep: bool) -> Tuple[Dict[int, Tuple], int]:
    """Per-node state of one run, and the turns it replayed."""
    turns: Dict[int, List[Tuple[float, int]]] = defaultdict(list)
    builds: List[Any] = []
    replayed = [0]
    on_subslot, replay = QmaMac._on_subslot, QmaMac._replay

    def logged_turn(mac: QmaMac, subslot: int) -> None:
        turns[mac.node_id].append((mac.sim.now, subslot))
        on_subslot(mac, subslot)

    def logged_replay(mac: QmaMac, count: int) -> None:
        turns[mac.node_id].extend(_replayed(mac, count))
        replayed[0] += count
        replay(mac, count)

    def capture(method: Any) -> Any:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            built = method(self, *args, **kwargs)
            builds.append(built)
            return built

        return wrapper

    with mock.patch.multiple(
        QmaMac, _on_subslot=logged_turn, _replay=logged_replay,
        **({} if sleep else {"_sleep": lambda mac, grid: False}),
    ), mock.patch.multiple(
        ScenarioBuilder, build=capture(ScenarioBuilder.build),
        build_dsme=capture(ScenarioBuilder.build_dsme),
    ):
        execute_scenario(scenario)
    (built,) = builds
    macs = RUNS_MACS[scenario.experiment](built)
    return {node: _state(mac, turns[node]) for node, mac in macs.items()}, replayed[0]


def test_the_pinned_runs_sleep_and_match_nodes_that_never_do():
    """The three runs of ``test_tick_counters.py``, with every source
    recording its histories: most selections are replayed, and every node
    ends as it would have without sleeping."""
    for name, (scenario, _, _) in sorted(RUNS.items()):
        metrics = DEFAULT_METRICS[scenario.experiment]
        if "convergence" not in metrics:
            metrics += ("convergence",)
        scenario = dataclasses.replace(scenario, metrics=metrics)
        awake, none = _run_logged(scenario, sleep=False)
        asleep, replayed = _run_logged(scenario, sleep=True)
        assert none == 0 and replayed > 0, name
        assert asleep == awake, name


# ------------------------------------------------------- drawn programs
TABLES = ((0.0,), (0.0, 0.02, 0.3), DEFAULT_EXPLORATION_TABLE)
#: Cautious-startup lengths in subslots: none, and shorter and longer than
#: the drawn horizons (2, 7 and 256 boundaries) and than the first 60
#: boundaries, where the operations and cuts fall (overheard frames and
#: restarts during a startup sleep, cuts inside startup).
STARTUPS = (0, 0, 4, 30, 300)
OPS = ("send", "send", "broadcast", "foreign", "foreign-again", "foreign-ack",
       "stop", "start", "restart-startup", "sim-stop")


@st.composite
def programs(draw: Any) -> Dict[str, Any]:
    count = draw(st.integers(2, 5))
    startup = draw(st.sampled_from(STARTUPS))
    pairs = [(a, b) for a in range(count) for b in range(a + 1, count)]
    return {
        "seed": draw(st.integers(0, 2**16)),
        "count": count,
        "links": [pair for pair in pairs if draw(st.integers(0, 3))],
        "config": {
            "num_subslots": draw(st.sampled_from([2, 3, 5, 8])),
            "cautious_startup_subslots": startup,
        },
        "exploration": draw(st.sampled_from(["table", "table", "constant", "decaying"])),
        "table": draw(st.sampled_from(TABLES)),
        "gated": draw(st.booleans()),
        "max_age": draw(st.sampled_from([None, 0.007, 10.0])),
        "horizon": draw(st.sampled_from([2, 7, 256])),
        "recording": [draw(st.booleans()) for _ in range(count)],
        # Frames queued before the start, so that most nodes have work.
        "preload": [draw(st.integers(0, 3)) for _ in range(count)],
        # Start and operation times in half subslots: on and between boundaries.
        "starts": [draw(st.sampled_from([0, 0, 1, 3, 8])) for _ in range(count)],
        "ops": draw(st.lists(
            st.tuples(st.integers(0, 120), st.sampled_from(OPS),
                      st.integers(0, count - 1), st.integers(0, 8)),
            max_size=25,
        )),
        "cuts": sorted(set(draw(st.lists(st.integers(1, 120), max_size=3)))),
        # Long enough for a startup longer than the horizon to end.
        "end": 130 if startup < 256 else 1000,
        "steps": draw(st.integers(0, 2)),
    }


def _half_subslots(count: int) -> float:
    """``count`` half subslots, summed as a grid started at 0 sums its
    boundaries, so even counts land exactly on them."""
    time = 0.0
    for _ in range(count // 2):
        time += SUBSLOT
    return time + (SUBSLOT / 2 if count % 2 else 0.0)


def _execute(program: Dict[str, Any], cls: type) -> List[Tuple[int, List[Tuple]]]:
    """Run ``program`` with MACs of class ``cls``; after every cut and every
    ``step()``, the events executed and every node's state."""
    sim = Simulator(seed=program["seed"])
    channel = WirelessChannel(sim)
    count = program["count"]
    radios = [Radio(sim, channel, node) for node in range(1, count + 1)]
    for a, b in program["links"]:
        channel.connect(a + 1, b + 1)
    gate = WindowedGate(period=0.03, window=0.02, offset=0.001) if program["gated"] else None
    config = QmaConfig(subslot_duration=SUBSLOT, **program["config"])
    macs = []
    for radio, recording in zip(radios, program["recording"]):
        exploration = {
            "table": lambda: ParameterBasedExploration(program["table"]),
            "constant": lambda: ConstantEpsilon(0.05),
            "decaying": lambda: EpsilonGreedy(epsilon_start=0.3, decay=0.95),
        }[program["exploration"]]()
        mac = cls(sim, radio, config=config, exploration=exploration, gate=gate)
        mac.neighbours.max_age = program["max_age"]
        if recording:
            mac.record_history()
        macs.append(mac)
    for node, (mac, frames) in enumerate(zip(macs, program["preload"])):
        for _ in range(frames):
            mac.send(Frame(FrameKind.DATA, src=node + 1, dst=(node + 1) % count + 1,
                           payload_bytes=10))
    for mac, start in zip(macs, program["starts"]):
        if start:
            sim.schedule_at(_half_subslots(start), mac.start)
        else:
            mac.start()
    foreign: Dict[int, Frame] = {}
    for time, op, node, level in program["ops"]:
        mac = macs[node]
        call: Any = None
        if op in ("send", "broadcast"):
            dst = BROADCAST if op == "broadcast" else (node + 1) % count + 1
            call = (mac.send, Frame(FrameKind.DATA, src=node + 1, dst=dst, payload_bytes=10))
        elif op == "foreign":
            dst = node + 1 if level % 2 else 98
            frame = foreign[node] = Frame(FrameKind.DATA, src=99, dst=dst,
                                          payload_bytes=10, queue_level=level)
            call = (mac.radio.deliver, frame)
        elif op == "foreign-again" and node in foreign:  # a duplicate: ACKed, not delivered
            call = (mac.radio.deliver, foreign[node])
        elif op == "foreign-ack":
            call = (mac.radio.deliver, Frame(FrameKind.ACK, src=99, dst=98))
        elif op == "stop":
            call = (mac.stop, None)
        elif op == "start":
            call = (mac.start, None)
        elif op == "restart-startup":
            call = (mac.startup.restart, None)
        elif op == "sim-stop":
            call = (sim.stop, None)
        if call is not None:
            sim.schedule_at(_half_subslots(time), *call)
    snapshots = []
    for cut in program["cuts"] + [program["end"]]:
        sim.run_until(max(sim.now, _half_subslots(cut)))
        snapshots.append((sim.events_executed, [_state(mac, mac.turns) for mac in macs]))
        for _ in range(program["steps"]):
            sim.step()
            snapshots.append((sim.events_executed, [_state(mac, mac.turns) for mac in macs]))
    return snapshots


#: A node restarted by an event drained during a walk of its old grid,
#: before its turn there: it must take no turn on the old grid.
RESTARTED_IN_A_WALK = {
    "seed": 0, "count": 3, "links": [],
    "config": {"num_subslots": 2, "cautious_startup_subslots": 0},
    "exploration": "table", "table": (0.0,), "gated": True, "max_age": None,
    "horizon": 2, "recording": [False, False, False], "preload": [0, 0, 0],
    "starts": [1, 0, 0], "ops": [(0, "send", 0, 0), (1, "start", 0, 0)],
    "cuts": [], "end": 130, "steps": 0,
}


@given(programs())
@example(RESTARTED_IN_A_WALK)
@settings(deadline=None)  # example count: the profile (tests/conftest.py)
def test_drawn_programs_run_as_if_no_node_slept(program):
    with mock.patch.object(mac_module, "_HORIZON", program["horizon"]):
        assert _execute(program, LoggedMac) == _execute(program, AwakeMac)


def test_a_restarted_startup_puts_an_idle_node_back_on_the_loop():
    """Cautious startup is work: restarting it on a running node that is
    off its grid's loop puts the node back, and it observes again."""
    sim = Simulator(seed=2)
    channel = WirelessChannel(sim)
    mac = QmaMac(sim, Radio(sim, channel, 1),
                 config=QmaConfig(subslot_duration=SUBSLOT, num_subslots=4,
                                  cautious_startup_subslots=3))
    mac.start()
    sim.run_until(_half_subslots(20))
    assert not mac._on_loop and mac.startup.elapsed_subslots == 3
    mac.startup.restart()
    assert mac._on_loop and mac.startup.active
    sim.run_until(_half_subslots(40))
    assert mac.startup.elapsed_subslots == 3 and not mac.startup.active
    assert mac.qtable.updates == 6
