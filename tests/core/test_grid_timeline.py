"""The shared subslot timelines of the QMA grid clock.

A grid clock key ``(first boundary time, subslot duration, subslot count,
gate)`` always gives the same boundaries, so every grid with that key reads
them from one process-wide timeline (``repro.core.mac._Timeline``, README
"Grid clock").  Here the timeline is checked against a stepping loop
written out below, whatever chunks, order and threads extend it, and whole
runs are checked to give the same records and pinned counters however
warm the cache they start from is.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from array import array
from typing import Any, Callable, List, Optional, Tuple

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.campaign.runner import _report_metrics, scenario_report
from repro.core import mac as mac_module
from repro.core.mac import _Timeline
from repro.mac.gate import ActivityGate, WindowedGate

from test_tick_counters import RUNS, _counters, captured_builds  # noqa: F401 (fixture)


def _reference(time: float, duration: float, num_subslots: int,
               gate: Optional[ActivityGate], count: int) -> List[Tuple[float, int]]:
    """The first ``count`` boundaries, one step at a time: the time advances
    by the duration and the subslot modulo the count, and a time the gate
    holds closed moves to its next active time with subslot 0."""
    subslot, boundaries = 0, [(time, 0)]
    while len(boundaries) < count:
        time += duration
        subslot = (subslot + 1) % num_subslots
        if gate is not None and not gate.active(time):
            time, subslot = gate.next_active_time(time), 0
        boundaries.append((time, subslot))
    return boundaries


def _boundaries(timeline: _Timeline) -> List[Tuple[float, int]]:
    return list(zip(timeline.times, timeline.subslots))


@st.composite
def clocks(draw: Any) -> Tuple[float, float, int, Optional[WindowedGate]]:
    """A clock key; with a gate, its first boundary in or out of a window."""
    duration = draw(st.floats(min_value=1e-4, max_value=2e-2))
    num_subslots = draw(st.integers(min_value=1, max_value=60))
    time = draw(st.floats(min_value=0.0, max_value=1.0))
    if not draw(st.booleans()):
        return time, duration, num_subslots, None
    period = draw(st.floats(min_value=1e-3, max_value=0.2))
    window = draw(st.floats(min_value=1e-4, max_value=period))
    gate = WindowedGate(period, window, draw(st.floats(min_value=0.0, max_value=0.5)))
    if draw(st.booleans()):
        time = gate.next_active_time(time)
    else:
        assume(not gate.active(time))
    return time, duration, num_subslots, gate


@given(
    clock=clocks(),
    chunk=st.integers(min_value=1, max_value=64),
    counts=st.lists(st.integers(min_value=1, max_value=600), max_size=6),
    until=st.floats(min_value=0.0, max_value=2.0),
)
def test_a_timeline_equals_stepping_whatever_its_chunks_and_order(clock, chunk, counts, until):
    saved = mac_module._CHUNK
    mac_module._CHUNK = chunk
    try:
        timeline = _Timeline(*clock)
        for count in counts:
            timeline.grow(count)
            assert len(timeline.times) >= count
        start = min(counts, default=1) - 1
        found = timeline.first_at_or_after(clock[0] + until, start)
    finally:
        mac_module._CHUNK = saved
    assert len(timeline.subslots) == len(timeline.times)
    assert _boundaries(timeline) == _reference(*clock, len(timeline.times))
    times = timeline.times
    assert found >= start and times[found] >= clock[0] + until
    assert found == start or times[found - 1] < clock[0] + until


def test_timelines_are_shared_by_gate_value_and_bounded(monkeypatch):
    monkeypatch.setattr(mac_module, "_TIMELINES", {})
    key = (0.00768, 1.1378e-3, 54, WindowedGate(0.01536, 0.0061, 0.00768))
    timeline = _Timeline.of(key)
    assert _Timeline.of((*key[:3], WindowedGate(0.01536, 0.0061, 0.00768))) is timeline
    assert _Timeline.of((*key[:3], None)) is not timeline
    for time in range(2 * mac_module._TIMELINES_KEPT):
        _Timeline.of((float(time), 1e-3, 54, None))
    assert len(mac_module._TIMELINES) == mac_module._TIMELINES_KEPT
    assert _Timeline.of(key) is not timeline  # dropped as least recently used
    assert timeline.times.itemsize + timeline.subslots.itemsize <= 16


class _WatchedArray(array):
    """An array that calls ``watch`` after every ``extend``, as a reader
    thread scheduled right there would look: between the two extends that
    publish a timeline's new boundaries, or after both."""

    watch: Callable[[], None] = staticmethod(lambda: None)

    def extend(self, values: Any) -> None:
        super().extend(values)
        self.watch()


def test_two_threads_extending_one_key_build_the_reference(monkeypatch):
    """Three threads grow one timeline in small chunks at once; whenever a
    timeline array has just been extended, no time lacks its subslot."""
    monkeypatch.setattr(mac_module, "_TIMELINES", {})
    monkeypatch.setattr(mac_module, "_CHUNK", 3)
    monkeypatch.setattr(mac_module, "array", _WatchedArray)
    key = (0.001, 2e-3, 7, WindowedGate(period=0.03, window=0.02, offset=0.001))
    timeline = _Timeline.of(key)
    target, start = 6000, threading.Barrier(3, timeout=60)
    torn: List[int] = []

    def look() -> None:
        if len(timeline.subslots) < len(timeline.times):
            torn.append(len(timeline.times))

    def grow(step: int) -> None:
        start.wait()
        for count in range(step, target + 1, step):
            timeline.grow(count)

    monkeypatch.setattr(_WatchedArray, "watch", staticmethod(look))
    growers = [threading.Thread(target=grow, args=(step,)) for step in (7, 11, 13)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in growers:
            thread.start()
        for thread in growers:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in growers)
    assert torn == []
    assert len(timeline.times) >= target - 13
    assert _boundaries(timeline) == _reference(*key, len(timeline.times))
    assert _Timeline.of(key) is timeline


# ----------------------------------------------------------------- whole runs
def _longer(name: str) -> Any:
    """The pinned run of ``name``, made longer: it extends the timeline
    past the boundaries the pinned run reads."""
    scenario = RUNS[name][0]
    longer = {"hidden-node": {"packets_per_node": 60}, "dsme": {"duration": 16.0}}[name]
    return dataclasses.replace(scenario, params={**scenario.params, **longer})


def _observe(name: str, builds: List[Any]) -> Tuple[str, Any]:
    """The record scalars and the pinned counters of one pinned run."""
    scenario, _, macs = RUNS[name]
    del builds[:]
    report = scenario_report(scenario)
    (built,) = builds
    return repr(_report_metrics(report, traced=False)), _counters(built.sim, macs(built))


def _in_thread(function: Any, *args: Any) -> None:
    failures: List[BaseException] = []

    def target() -> None:
        try:
            function(*args)
        except BaseException as exc:  # pragma: no cover - reported below
            failures.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(120)
    assert not thread.is_alive() and failures == []


def test_runs_are_identical_from_a_cold_a_longer_and_another_threads_cache(
    captured_builds, monkeypatch
):
    for name in ("hidden-node", "dsme"):
        pinned = RUNS[name][1]
        monkeypatch.setattr(mac_module, "_TIMELINES", {})
        cold = _observe(name, captured_builds)
        assert cold[1] == pinned
        (timeline,) = mac_module._TIMELINES.values()
        used = len(timeline.times)

        scenario_report(_longer(name))
        assert len(timeline.times) > used
        assert _observe(name, captured_builds) == cold

        monkeypatch.setattr(mac_module, "_TIMELINES", {})
        _in_thread(scenario_report, _longer(name))
        assert len(mac_module._TIMELINES) == 1
        assert _observe(name, captured_builds) == cold
