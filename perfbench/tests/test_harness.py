"""Tests of the benchmark harness itself (not of the program it measures).

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import re

import pytest

import harness
import refkernel
import run
from repro.campaign.runner import execute_scenario
from repro.campaign.spec import Scenario
from workloads import WORKLOADS, DsmeRings, HiddenQma, UnitResult, Unit, check_unit, load_digests

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC_PATH = os.path.join(harness.ROOT, "BENCHMARK.json")


@pytest.fixture(scope="module")
def spec():
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_workload_and_metric_name_is_well_formed(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
        assert name[0].isalnum() and len(name) <= 64, name
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_reported_metric_sets_match_the_spec(spec):
    from tracing import Tracer

    measurement = harness.Measurement("hidden-qma", ref_repeats=1)
    measurement.setups = [1.0]
    assert set(measurement.end_to_end()) == {m["name"] for m in spec["end_to_end"]}
    tracer = Tracer(ref_repeats=1)
    try:
        traced = set(tracer.layer_metrics()) | set(measurement.diagnostics())
    finally:
        tracer.close()
    traced |= {"sim.events_per_ref_s", "service.retries", "service.quarantined",
               "trace.overhead_pct"}
    assert traced == {m["name"] for m in spec["per_layer"]}
    units = run.metric_units()
    for metric in spec["end_to_end"]:
        assert measurement.end_to_end()[metric["name"]]["unit"] == units[metric["name"]]


def test_reference_kernel_does_a_fixed_deterministic_amount_of_work(monkeypatch):
    first = refkernel.reference_kernel(2)
    assert refkernel.reference_kernel(2) == first
    assert refkernel.reference_kernel(1) != first
    vector = refkernel.reference_kernel(2, vector=True)
    assert refkernel.reference_kernel(2, vector=True) == vector != first

    calls = []
    original = refkernel._Node.on_event

    def counting(node, now, rng):
        calls.append(now)
        return original(node, now, rng)

    monkeypatch.setattr(refkernel._Node, "on_event", counting)
    assert refkernel.reference_kernel(3) == refkernel.reference_kernel(3)
    assert len(calls) == 2 * 3 * refkernel.EVENTS_PER_REPEAT
    assert calls[: len(calls) // 2] == calls[len(calls) // 2 :]
    with pytest.raises(ValueError):
        refkernel.reference_kernel(0)


class _ReplayWorkload(HiddenQma):
    """Hands back prepared records instead of running the program."""

    def __init__(self, records):
        super().__init__(workdir="")
        self.records = records

    def run(self, unit):
        return UnitResult(list(self.records), len(self.records))


def test_perturbed_record_is_caught_and_lowers_completed_run_share():
    workload = HiddenQma(workdir="")
    pinned = load_digests()["hidden-qma"]
    seed = min(int(key) for key in pinned)
    record = execute_scenario(workload.scenario(seed))
    unit = Unit(index=7, seeds=(seed,))
    assert check_unit(workload, unit, [record], pinned) == (0, [])

    record.metrics["pdr"] += 1e-12
    failed, problems = check_unit(workload, unit, [record], pinned)
    assert failed == 1
    assert "unit 7" in problems[0] and f"seed {seed}" in problems[0]

    measurement = harness.Measurement("hidden-qma", ref_repeats=1)
    measurement.setups = [1.0]
    harness.run_unit(_ReplayWorkload([record]), measurement, unit, pinned)
    share = measurement.end_to_end()["completed_run_share"]["value"]
    assert share == 0.0 and measurement.failed == 1


def test_missing_records_count_as_failed():
    workload = HiddenQma(workdir="")
    failed, problems = check_unit(workload, Unit(0, (1, 2)), [], {})
    assert failed == 2 and problems


def test_allocation_guard_fires_on_a_too_short_dsme_run():
    workload = DsmeRings(workdir="")
    params = dict(workload.params, duration=3.0)
    record = execute_scenario(Scenario(workload.experiment, "qma", 1, params))
    assert record.metrics["allocation_rate"] == 0.0
    assert "allocation_rate" in workload.guard(record)
    failed, problems = check_unit(workload, Unit(0, (1,)), [record], {"1": "x"})
    assert failed == 1 and "allocation_rate is 0" in problems[0]


def test_units_are_a_function_of_the_seed():
    workload = WORKLOADS["star-batch"](workdir="")
    pool = list(range(12))

    def first(seed, count=6):
        units = workload.units(pool, seed)
        return [next(units) for _ in range(count)]

    assert first(3) == first(3)
    assert first(3) != first(4)
    for unit in first(5):
        assert len(unit.seeds) == workload.seeds_per_unit
        assert set(unit.seeds) <= set(pool)
    with pytest.raises(ValueError):
        next(workload.units(list(range(10)), 1))
