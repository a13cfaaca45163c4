"""A deterministic guard on the cost of one QMA turn.

``QmaMac._on_subslot`` is the simulator's inner loop: it runs once per node
and subslot boundary with work.  Wall-clock timings vary with the machine,
so this counts Python-level function calls made under the turn instead —
the same on every machine for one interpreter version.  The turn inlines
its common path (the QBackoff update, the selection, the pending slot) and
calls the exploration strategy's ``notify_action`` hook only where a
strategy overrides it, so a turn makes about five calls; with the hook
called on every selection it made about seven, and with the common path
spread over helper methods about sixteen.
"""

from __future__ import annotations

import sys

from repro.campaign.runner import execute_scenario
from repro.campaign.spec import Scenario
from repro.core.mac import QmaMac

#: Calls under one turn, averaged over the run (the turn itself not counted).
MAX_CALLS_PER_TURN = 7


def test_a_qma_turn_makes_few_python_calls():
    turn = QmaMac._on_subslot.__code__
    turns = calls = depth = 0

    def profile(frame, event, arg):
        nonlocal turns, calls, depth
        if depth:
            if event == "call":
                calls += 1
                depth += 1
            elif event == "return":
                depth -= 1
        elif event == "call" and frame.f_code is turn:
            turns += 1
            depth = 1

    scenario = Scenario("hidden-node", mac="qma", seed=1,
                        params={"delta": 10.0, "packets_per_node": 30, "warmup": 5.0})
    sys.setprofile(profile)
    try:
        execute_scenario(scenario)
    finally:
        sys.setprofile(None)
    assert turns > 1000
    assert calls / turns <= MAX_CALLS_PER_TURN, f"{calls / turns:.2f} calls per turn"
