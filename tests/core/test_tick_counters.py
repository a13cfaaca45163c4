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
the tick or the engine must leave every value here unchanged; a
deliberate behaviour change must update them explicitly.
"""

from __future__ import annotations

import copy
import hashlib
from typing import Any, Dict, List

import pytest

from repro.campaign.runner import execute_scenario
from repro.campaign.spec import Scenario
from repro.core.actions import ALL_ACTIONS
from repro.scenario.builder import ScenarioBuilder

#: Per node: [qtable.updates, selected (B, C, S), random, greedy,
#: frames_elapsed, len(q_history), len(rho_history)].
HIDDEN_NODE_SEED_1 = {
    "events_executed": 34585,
    "seqs_drawn": 34588,
    "subslot_ticks": 34278,
    "rng_sha256": "e1334a2df3c3bc7d49bd6d01659bdbad61523351be1122e1e081f44cb8a23940",
    "qtable_sha256": "06067ff2645f65b7ab277031cfe7d93e7b5e2992b2e7c19f09b2f80be9faf1cf",
    "nodes": {
        0: [1386, [1248, 1, 29], 4, 1274, 212, 212, 1278],
        1: [108, [0, 0, 0], 0, 0, 212, 212, 0],
        2: [1375, [1237, 0, 30], 2, 1265, 212, 212, 1267],
    },
}

DSME_ONE_RING_SEED_0 = {
    "events_executed": 24949,
    "seqs_drawn": 24976,
    "subslot_ticks": 24787,
    "rng_sha256": "44045a390e05263c059815021985fbb401986e72e7be955e89925205ef54b1e0",
    "qtable_sha256": "4b1b9da5367802b2ebf65716f34bc009ad148b52ee43813a9b994b0970fcd0ff",
    "nodes": {
        0: [2538, [2430, 1, 0], 1, 2430, 92, 92, 2431],
        1: [2608, [2499, 0, 2], 4, 2497, 92, 92, 2501],
        2: [2835, [2728, 0, 0], 1, 2727, 92, 92, 2728],
        3: [2625, [2516, 1, 1], 4, 2514, 92, 92, 2518],
        4: [2864, [2757, 0, 0], 0, 2757, 92, 92, 2757],
        5: [2959, [2851, 1, 0], 2, 2850, 92, 92, 2852],
        6: [2688, [2581, 0, 0], 1, 2580, 92, 92, 2581],
    },
}


#: Short and contended enough to reach all seven reward constants of
#: Table 4, cca_failed and send_tx_failed included.
SINR_HIDDEN_NODE_SEED_0 = {
    "events_executed": 35769,
    "seqs_drawn": 35773,
    "subslot_ticks": 35160,
    "rng_sha256": "6227420d9964e9e6b48558085c080485921e534783e3a472ffff43d0001bc10b",
    "qtable_sha256": "9117aaf68298f6f57767021798e8c357ebbb94a853782d735b69c6e3849a3d4e",
    "nodes": {
        0: [108, [0, 0, 0], 0, 0, 163, 163, 0],
        1: [828, [687, 19, 14], 4, 716, 163, 163, 720],
        2: [740, [600, 20, 12], 2, 630, 163, 163, 632],
        3: [6828, [6625, 47, 49], 149, 6572, 163, 163, 6721],
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
        "subslot_ticks": sum(mac._counter for mac in macs.values()),
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


def test_hidden_node_qma_counters(captured_builds):
    execute_scenario(
        Scenario(
            "hidden-node",
            mac="qma",
            seed=1,
            params={"delta": 10.0, "packets_per_node": 30, "warmup": 5.0},
        )
    )
    (built,) = captured_builds
    assert _counters(built.sim, built.network.macs) == HIDDEN_NODE_SEED_1


def test_dsme_qma_cap_counters(captured_builds):
    execute_scenario(
        Scenario(
            "scalability",
            mac="qma",
            seed=0,
            params={"rings": 1, "duration": 8.0, "warmup": 2.0},
        )
    )
    (built,) = captured_builds
    assert _counters(built.sim, built.dsme.network.macs) == DSME_ONE_RING_SEED_0


def test_sinr_hidden_node_qma_counters(captured_builds):
    execute_scenario(
        Scenario(
            "sinr-hidden-node",
            mac="qma",
            seed=0,
            params={"delta": 10.0, "packets_per_node": 30, "warmup": 2.0},
        )
    )
    (built,) = captured_builds
    assert _counters(built.sim, built.network.macs) == SINR_HIDDEN_NODE_SEED_0
