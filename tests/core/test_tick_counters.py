"""Exact work counters and final Q-tables of three QMA runs, pinned.

Record digests cover the scalar metrics of a run but not how much work the
engine did to produce them.  These counters — events executed (stale
timer events included: they fire and return at once), sequence numbers
drawn (one per scheduled event, whether due by the end or not), subslot
ticks (summed over nodes), Q-table updates, action selections, frames
elapsed, history lengths, a digest of every named random stream's final
state and a digest of every node's final Q-values and policy — are
deterministic, so any change in them means the QMA subslot tick or the
engine changed its event stream (or its learning path), even when the
record digests happen to survive.  Short runs rarely let a reward change
flip an action, so the Q-table digest is what catches a changed Table 4
constant; between them the three runs reach all seven.  Optimisations of
the tick or the engine must leave every value here unchanged, except the
seqs drawn where they change how many marks the grid clock draws (README
"Grid clock"); a deliberate behaviour change must update them explicitly.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
from typing import Any, Dict, List

import pytest

from repro.campaign.runner import execute_scenario, scenario_report
from repro.campaign.spec import Scenario
from repro.core.actions import ALL_ACTIONS
from repro.core.mac import PENDING_NONE, PENDING_STARTUP, QmaMac, _SubslotGrid
from repro.phy.radio import Radio
from repro.scenario.builder import ScenarioBuilder
from repro.sim.engine import Simulator

#: Per node: [qtable.updates, selected (B, C, S), random, greedy,
#: frames_elapsed, len(q_history), len(rho_history)], from the full report
#: (``scenario_report``).  A MAC records its histories only for the
#: convergence collector, which reads the sources: of these runs only
#: hidden-node has it, so the other MACs' are empty.  A record run
#: (``execute_scenario``) attaches no collector without a scalar, so there
#: every MAC's are empty.
HIDDEN_NODE_SEED_1 = {
    "events_executed": 2760,
    "seqs_drawn": 2970,
    "subslot_ticks": 34278,
    "rng_sha256": "e1334a2df3c3bc7d49bd6d01659bdbad61523351be1122e1e081f44cb8a23940",
    "qtable_sha256": "06067ff2645f65b7ab277031cfe7d93e7b5e2992b2e7c19f09b2f80be9faf1cf",
    "nodes": {
        0: [1386, [1248, 1, 29], 4, 1274, 212, 212, 1278],
        1: [108, [0, 0, 0], 0, 0, 212, 0, 0],
        2: [1375, [1237, 0, 30], 2, 1265, 212, 212, 1267],
    },
}

DSME_ONE_RING_SEED_0 = {
    "events_executed": 3135,
    "seqs_drawn": 3302,
    "subslot_ticks": 24787,
    "rng_sha256": "44045a390e05263c059815021985fbb401986e72e7be955e89925205ef54b1e0",
    "qtable_sha256": "4b1b9da5367802b2ebf65716f34bc009ad148b52ee43813a9b994b0970fcd0ff",
    "nodes": {
        0: [2538, [2430, 1, 0], 1, 2430, 92, 0, 0],
        1: [2608, [2499, 0, 2], 4, 2497, 92, 0, 0],
        2: [2835, [2728, 0, 0], 1, 2727, 92, 0, 0],
        3: [2625, [2516, 1, 1], 4, 2514, 92, 0, 0],
        4: [2864, [2757, 0, 0], 0, 2757, 92, 0, 0],
        5: [2959, [2851, 1, 0], 2, 2850, 92, 0, 0],
        6: [2688, [2581, 0, 0], 1, 2580, 92, 0, 0],
    },
}


#: Short and contended enough to reach all seven reward constants of
#: Table 4, cca_failed and send_tx_failed included.
SINR_HIDDEN_NODE_SEED_0 = {
    "events_executed": 7731,
    "seqs_drawn": 8743,
    "subslot_ticks": 35160,
    "rng_sha256": "6227420d9964e9e6b48558085c080485921e534783e3a472ffff43d0001bc10b",
    "qtable_sha256": "9117aaf68298f6f57767021798e8c357ebbb94a853782d735b69c6e3849a3d4e",
    "nodes": {
        0: [108, [0, 0, 0], 0, 0, 163, 0, 0],
        1: [828, [687, 19, 14], 4, 716, 163, 0, 0],
        2: [740, [600, 20, 12], 2, 630, 163, 0, 0],
        3: [6828, [6625, 47, 49], 149, 6572, 163, 0, 0],
    },
}


@pytest.fixture
def captured_builds(monkeypatch) -> List[Any]:
    """Every scenario the builder constructs while the test runs."""
    builds: List[Any] = []

    def capture(method):
        def wrapper(self, *args, **kwargs):
            built = method(self, *args, **kwargs)
            builds.append(built)
            return built

        return wrapper

    monkeypatch.setattr(ScenarioBuilder, "build", capture(ScenarioBuilder.build))
    monkeypatch.setattr(ScenarioBuilder, "build_dsme", capture(ScenarioBuilder.build_dsme))
    return builds


def _counters(sim: Any, macs: Dict[int, Any]) -> Dict[str, Any]:
    nodes = {}
    for node_id, mac in macs.items():
        stats = mac.action_stats
        nodes[node_id] = [
            mac.qtable.updates,
            [stats.selected[action] for action in ALL_ACTIONS],
            stats.random_selections,
            stats.greedy_selections,
            mac.frames_elapsed,
            len(mac.q_history),
            len(mac.rho_history),
        ]
    return {
        "events_executed": sim.events_executed,
        "seqs_drawn": next(copy.copy(sim._seq)),
        "subslot_ticks": sum(mac.subslot_ticks for mac in macs.values()),
        "rng_sha256": _rng_digest(sim),
        "qtable_sha256": _qtable_digest(macs),
        "nodes": nodes,
    }


def _rng_digest(sim: Any) -> str:
    """sha256 over every named stream's ``getstate()``, in name order."""
    digest = hashlib.sha256()
    streams = sim.rng._streams
    for name in sorted(streams):
        digest.update(repr((name, streams[name].getstate())).encode("utf-8"))
    return digest.hexdigest()


def _qtable_digest(macs: Dict[int, Any]) -> str:
    """sha256 over every node's final Q-values and policy, in node order."""
    digest = hashlib.sha256()
    for node_id in sorted(macs):
        qtable = macs[node_id].qtable
        digest.update(repr((node_id, qtable._values, qtable._policy)).encode("utf-8"))
    return digest.hexdigest()


#: name -> (scenario, pinned counters, the built scenario's MACs).
RUNS = {
    "hidden-node": (
        Scenario("hidden-node", mac="qma", seed=1,
                 params={"delta": 10.0, "packets_per_node": 30, "warmup": 5.0}),
        HIDDEN_NODE_SEED_1,
        lambda built: built.network.macs,
    ),
    "dsme": (
        Scenario("scalability", mac="qma", seed=0,
                 params={"rings": 1, "duration": 8.0, "warmup": 2.0}),
        DSME_ONE_RING_SEED_0,
        lambda built: built.dsme.network.macs,
    ),
    "sinr-hidden-node": (
        Scenario("sinr-hidden-node", mac="qma", seed=0,
                 params={"delta": 10.0, "packets_per_node": 30, "warmup": 2.0}),
        SINR_HIDDEN_NODE_SEED_0,
        lambda built: built.network.macs,
    ),
}


#: Per run, [len(q_history), len(rho_history)] of every MAC the
#: convergence collector reads (the sources) once it is in the run's
#: metrics; the other MACs' histories stay empty.
RECORDED_HISTORY = {
    "hidden-node": {0: [212, 1278], 2: [212, 1267]},
    "dsme": {
        1: [92, 2501], 2: [92, 2728], 3: [92, 2518],
        4: [92, 2757], 5: [92, 2852], 6: [92, 2581],
    },
    "sinr-hidden-node": {1: [163, 720], 2: [163, 632], 3: [163, 6721]},
}

#: The runs' default collectors (``Scenario.metrics=None``) by experiment.
DEFAULT_METRICS = {
    "hidden-node": ("pdr", "queue", "delay", "attempts", "convergence"),
    "scalability": ("dsme",),
    "sinr-hidden-node": ("pdr", "attempts", "link-asymmetry"),
}


#: The counters that differ when the run is cut halfway: a cut ends the
#: leap of an idle grid (see README "Grid clock") at the cut, so the
#: boundary after the cut takes an entry and draws a mark of its own, and
#: it wakes every sleeping node at the last boundary before it, whose real
#: turn draws a mark a replayed one does not.
CUT_RUN_COUNTERS = {
    "hidden-node": {"events_executed": 2761, "seqs_drawn": 2972},
    "dsme": {"seqs_drawn": 3313},
    "sinr-hidden-node": {"seqs_drawn": 8745},
}

#: Hidden-node runs of every MAC without the grid clock, for the frame and
#: transmission invariants of the conservation test.
OTHER_MAC_HIDDEN_NODE = {
    f"{label}-hidden-node": Scenario(
        "hidden-node", mac=mac, seed=1,
        params={"delta": 10.0, "packets_per_node": 30, "warmup": 5.0},
    )
    for label, mac in (
        ("csma", "unslotted-csma"),
        ("slotted-csma", "slotted-csma"),
        ("slotted-aloha", "slotted-aloha"),
        ("aloha-q", "aloha-q"),
        ("tdma", "tdma"),
    )
}


def _check_counters(name: str, captured_builds: List[Any]) -> None:
    scenario, pinned, macs = RUNS[name]
    scenario_report(scenario)
    (built,) = captured_builds
    assert _counters(built.sim, macs(built)) == pinned


def test_hidden_node_qma_counters(captured_builds):
    _check_counters("hidden-node", captured_builds)


def test_dsme_qma_cap_counters(captured_builds):
    _check_counters("dsme", captured_builds)


def test_sinr_hidden_node_qma_counters(captured_builds):
    _check_counters("sinr-hidden-node", captured_builds)


#: Per run, (quiet boundaries, all boundaries) of its grids: a quiet
#: boundary has only sleepers due and visits none of them (README "Grid
#: clock").  The exactness pins above cannot tell a grid that never takes
#: the quiet path from one that does, so these counts are pinned too.
QUIET_BOUNDARIES = {
    "hidden-node": (2094, 2453),
    "dsme": (2874, 2973),
    "sinr-hidden-node": (6276, 7122),
}

#: Per run, the boundaries that reach the heap (``_boundary`` calls on a
#: grid with members); the re-arm passes the other quiet ones.
HEAP_VISITS = {"hidden-node": 360, "dsme": 164, "sinr-hidden-node": 850}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_quiet_boundaries_skip_the_member_pass(name, captured_builds, monkeypatch):
    """The pinned runs take the quiet path at a fixed count of boundaries,
    most of the DSME run's among them, whether a boundary reaches the heap
    and takes ``_boundary``'s quiet branch or the re-arm passes it; few
    boundaries reach the heap, and every counter stays pinned."""
    quiet = boundaries = visits = 0
    boundary, rearm = _SubslotGrid._boundary, _SubslotGrid._rearm

    def counting_boundary(grid):
        nonlocal quiet, boundaries, visits
        due = grid.due
        boundary(grid)
        if grid.members:
            quiet += grid.due is due  # the member pass rebuilds the list
            boundaries += 1
            visits += 1

    def counting_rearm(grid):
        nonlocal quiet, boundaries
        ticks, due = grid.ticks, bool(grid.due)
        rearm(grid)
        if due:  # with no member due, the boundaries passed are idle ones
            quiet += grid.ticks - ticks
            boundaries += grid.ticks - ticks

    monkeypatch.setattr(_SubslotGrid, "_boundary", counting_boundary)
    monkeypatch.setattr(_SubslotGrid, "_rearm", counting_rearm)
    _check_counters(name, captured_builds)
    assert (quiet, boundaries) == QUIET_BOUNDARIES[name]
    assert visits == HEAP_VISITS[name]
    if name == "dsme":
        assert quiet >= 0.8 * boundaries
        assert visits < 0.1 * boundaries


@pytest.mark.parametrize("name", sorted(RUNS))
def test_the_convergence_collector_records_the_histories_it_reads(name, captured_builds):
    """With ``convergence`` in the metrics, the MACs it reads record their
    full histories and every other counter stays as pinned."""
    scenario, pinned, macs = RUNS[name]
    metrics = DEFAULT_METRICS[scenario.experiment]
    if "convergence" not in metrics:
        metrics += ("convergence",)
    scenario_report(dataclasses.replace(scenario, metrics=metrics))
    (built,) = captured_builds
    recorded = RECORDED_HISTORY[name]
    expected = {
        node_id: counters[:5] + recorded.get(node_id, [0, 0])
        for node_id, counters in pinned["nodes"].items()
    }
    assert _counters(built.sim, macs(built)) == {**pinned, "nodes": expected}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_record_run_records_no_histories(name, captured_builds):
    """A record keeps only scalars, so a record run leaves out the
    convergence collector even where it is named: no MAC records its
    histories, and every other counter stays as pinned."""
    scenario, pinned, macs = RUNS[name]
    metrics = DEFAULT_METRICS[scenario.experiment]
    if "convergence" not in metrics:
        metrics += ("convergence",)
    execute_scenario(dataclasses.replace(scenario, metrics=metrics))
    (built,) = captured_builds
    expected = {node_id: counters[:5] + [0, 0] for node_id, counters in pinned["nodes"].items()}
    assert _counters(built.sim, macs(built)) == {**pinned, "nodes": expected}


def _assert_conserved(
    macs: Dict[int, Any], punished: Dict[int, int], ended: Dict[int, int]
) -> None:
    """Per node: every offered frame is finished or still queued, every
    transmission begun has ended or is still on the air, and (QMA) every
    decision has made its Q-table updates unless it is still pending."""
    for node_id, mac in macs.items():
        stats = mac.stats
        finished = sum(stats.per_kind_sent.values()) + sum(stats.per_kind_failed.values())
        assert stats.offered == finished + mac.queue.level, node_id
        radio = mac.radio
        assert radio.frames_sent == ended.get(id(radio), 0) + radio.transmitting, node_id
        if not isinstance(mac, QmaMac):
            continue
        decisions = mac.action_stats.total + mac.startup.elapsed_subslots
        pending = mac._pend_kind != PENDING_NONE
        expected = decisions + 2 * punished.get(id(mac), 0) - pending
        assert mac.qtable.updates == expected, node_id


@pytest.mark.parametrize("name", sorted(RUNS) + list(OTHER_MAC_HIDDEN_NODE))
def test_conservation_holds_mid_run_and_at_the_end(name, captured_builds, monkeypatch):
    """The invariants hold at a cut halfway through the run, where most
    QMA nodes are idle and read their clock fields through lazy catch-up,
    and at the end; reading at the cut leaves every pinned counter
    unchanged."""
    if name in OTHER_MAC_HIDDEN_NODE:
        scenario = OTHER_MAC_HIDDEN_NODE[name]
        pinned, macs = None, lambda built: built.network.macs
    else:
        scenario, pinned, macs = RUNS[name]
    punished: Dict[int, int] = {}
    evaluate = QmaMac._evaluate_boundary_action

    def counting_evaluate(mac, kind):
        if kind == PENDING_STARTUP and mac._pend_overheard:
            punished[id(mac)] = punished.get(id(mac), 0) + 1
        evaluate(mac, kind)

    ended: Dict[int, int] = {}
    transmission_finished = Radio.transmission_finished

    def counting_transmission_finished(radio, frame):
        ended[id(radio)] = ended.get(id(radio), 0) + 1
        transmission_finished(radio, frame)

    run_until = Simulator.run_until
    cuts = []

    def run_in_halves(sim, end_time):
        run_until(sim, sim.now + (end_time - sim.now) / 2)
        cuts.append(pinned and _counters(sim, macs(captured_builds[-1])))
        _assert_conserved(macs(captured_builds[-1]), punished, ended)
        run_until(sim, end_time)

    monkeypatch.setattr(QmaMac, "_evaluate_boundary_action", counting_evaluate)
    monkeypatch.setattr(Radio, "transmission_finished", counting_transmission_finished)
    monkeypatch.setattr(Simulator, "run_until", run_in_halves)
    scenario_report(scenario)
    (built,) = captured_builds
    assert len(cuts) == 1 and sum(ended.values()) > 0
    _assert_conserved(macs(built), punished, ended)
    if pinned is None:
        return
    assert cuts[0]["subslot_ticks"] < pinned["subslot_ticks"]
    # Startup observations occur in every run; overheard ones (punished)
    # occur in none of the three, so that term is zero here.
    assert sum(mac.startup.elapsed_subslots for mac in macs(built).values()) > 0
    assert _counters(built.sim, macs(built)) == {**pinned, **CUT_RUN_COUNTERS.get(name, {})}
