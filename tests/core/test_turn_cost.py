"""A deterministic guard on the cost of QMA's action selections.

Every action selection of a QMA node is one turn: a real one
(``QmaMac._on_subslot``) or, for a node sleeping through QBackoff turns, a
replayed one (``QmaMac._replay``, README "Grid clock").  Wall-clock timings
vary with the machine, so this counts the Python-level calls into
``repro.core`` over a whole run instead — the same on every machine for one
interpreter version — and divides them by the selections made, virtual
ones included.  Measured with this counter, the runs below made 9.57
(hidden-node) and 6.67 (1-ring DSME) calls per selection while every
selection was a real turn, 5.21 and 1.74 once backing-off nodes sleep,
3.38 and 0.46 once a replay is one Q-table loop and cautious-startup
observations sleep too (704 and 899 real turns before, 383 and 150 after),
1.74 and 0.159 once the re-arm passes quiet boundaries without a heap
entry (4,419 calls for 2,545 selections and 2,913 for 18,368), and 1.46
and 0.152 once the grid reads its boundaries off a shared timeline
instead of stepping them (3,717 calls and 2,800 from a cold timeline
cache; 2,795 on DSME from a warm one), and 1.31 and 0.144 once a turn's
re-arm is inline (3,334 calls and 2,650 from a cold cache).
"""

from __future__ import annotations

import os
import sys
from typing import Any, Callable, Dict, List, Tuple

import repro.core
from repro.campaign.runner import execute_scenario
from repro.campaign.spec import Scenario
from repro.core.mac import QmaMac
from repro.scenario.builder import ScenarioBuilder

#: Calls into ``repro.core`` per action selection, over the whole run.
MAX_CORE_CALLS_PER_SELECTION = {"hidden-node": 1.6, "dsme": 0.17}
#: Real turns per action selection on the DSME run, where nearly every
#: selection is a QBackoff and nearly every other turn a cautious-startup
#: observation, both of which a sleeping node replays.
MAX_REAL_TURNS_PER_SELECTION = 0.02

CORE = os.path.dirname(repro.core.__file__) + os.sep

RUNS: Dict[str, Tuple[Scenario, Callable[[Any], Dict[int, QmaMac]]]] = {
    "hidden-node": (
        Scenario("hidden-node", mac="qma", seed=1,
                 params={"delta": 10.0, "packets_per_node": 30, "warmup": 5.0}),
        lambda built: built.network.macs,
    ),
    "dsme": (
        Scenario("scalability", mac="qma", seed=0,
                 params={"rings": 1, "duration": 8.0, "warmup": 2.0}),
        lambda built: built.dsme.network.macs,
    ),
}


def _count(name: str, monkeypatch: Any) -> Tuple[int, int, int]:
    """Calls into ``repro.core``, real turns and selections of one run."""
    scenario, macs_of = RUNS[name]
    builds: List[Any] = []
    for method in ("build", "build_dsme"):
        build = getattr(ScenarioBuilder, method)

        def capture(self, *args, _build=build, **kwargs):
            built = _build(self, *args, **kwargs)
            builds.append(built)
            return built

        monkeypatch.setattr(ScenarioBuilder, method, capture)
    turn = QmaMac._on_subslot.__code__
    calls = turns = 0

    def profile(frame, event, arg):
        nonlocal calls, turns
        if event == "call" and frame.f_code.co_filename.startswith(CORE):
            calls += 1
            turns += frame.f_code is turn

    sys.setprofile(profile)
    try:
        execute_scenario(scenario)
    finally:
        sys.setprofile(None)
    (built,) = builds
    selections = sum(mac.action_stats.total for mac in macs_of(built).values())
    return calls, turns, selections


def test_hidden_node_selections_make_few_python_calls(monkeypatch):
    calls, _, selections = _count("hidden-node", monkeypatch)
    assert selections > 1000
    limit = MAX_CORE_CALLS_PER_SELECTION["hidden-node"]
    assert calls / selections <= limit, f"{calls / selections:.2f} calls per selection"


def test_dsme_selections_are_mostly_replayed_backoffs(monkeypatch):
    calls, turns, selections = _count("dsme", monkeypatch)
    assert selections > 10000
    assert turns / selections <= MAX_REAL_TURNS_PER_SELECTION, f"{turns} real turns"
    limit = MAX_CORE_CALLS_PER_SELECTION["dsme"]
    assert calls / selections <= limit, f"{calls / selections:.2f} calls per selection"
