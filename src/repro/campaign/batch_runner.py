"""Seed-grouped campaign execution (``--batch-seeds``).

The campaign layer's dominant workload is "many seeds × one configuration".
:func:`execute_seed_batch` takes a *group* of scenarios that differ only in
their master seed, prepares each one as a lane (construction flows through
the artifact cache, so every lane of a group shares one frozen
``ScenarioArtifacts`` bundle) and hands the lanes to
:class:`~repro.sim.batch.SeedBatchExecutor`, which runs them one after
another.  Results are bit-identical to per-scenario
:func:`~repro.campaign.runner.execute_scenario` calls.

Only experiment families with a prepare/finish split can be grouped
(currently the testbed topologies); any other group runs scenario by
scenario, so callers can group unconditionally.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.campaign.records import RunRecord
from repro.campaign.spec import Scenario
from repro.experiments.testbed import prepare_topology_run
from repro.sim.batch import SeedBatchExecutor

__all__ = ["batchable_experiment", "execute_seed_batch", "iter_seed_groups"]

#: Experiment family -> lane preparer (same signature discipline as the
#: family's ``run_*`` runner in :mod:`repro.campaign.runner`'s family table).
_PREPARERS = {
    "testbed-star": partial(prepare_topology_run, "iotlab-star"),
    "testbed-tree": partial(prepare_topology_run, "iotlab-tree"),
}


def batchable_experiment(experiment: str) -> bool:
    """Whether the experiment family supports seed-grouped execution."""
    return experiment in _PREPARERS


def _same_config(a: Scenario, b: Scenario) -> bool:
    """True when the scenarios differ (at most) in their master seed."""
    return (
        a.experiment == b.experiment
        and a.mac == b.mac
        and a.propagation == b.propagation
        and a.params == b.params
        and a.metrics == b.metrics
    )


def iter_seed_groups(
    scenarios: Iterable[Scenario], batch_seeds: int
) -> Iterator[List[Scenario]]:
    """Group consecutive same-configuration scenarios, ``batch_seeds`` apiece.

    Grouping is strictly consecutive, so emitting the groups' records in
    order preserves the campaign's deterministic record order.  Scenarios
    of non-batchable experiments pass through as singleton groups.
    """
    group: List[Scenario] = []
    for scenario in scenarios:
        if (
            group
            and len(group) < batch_seeds
            and batchable_experiment(scenario.experiment)
            and _same_config(group[0], scenario)
        ):
            group.append(scenario)
            continue
        if group:
            yield group
        group = [scenario]
    if group:
        yield group


def _prepare_lane(scenario: Scenario):
    from repro.campaign.runner import _campaign_params, record_collectors

    return _PREPARERS[scenario.experiment](
        mac=scenario.mac,
        seed=scenario.seed,
        propagation=scenario.propagation,
        collectors=record_collectors(scenario.experiment, scenario.metrics),
        **_campaign_params(scenario),
    )


def execute_seed_batch(
    scenarios: Sequence[Scenario],
    executor: Optional[SeedBatchExecutor] = None,
) -> List[RunRecord]:
    """Run a same-configuration seed group; records keep input order.

    Scalar metrics are bit-identical to running each scenario through
    ``execute_scenario`` on its own.
    """
    from repro.campaign import runner
    from repro.campaign.runner import _report_metrics, execute_scenario

    scenarios = list(scenarios)
    if not scenarios:
        return []
    if len(scenarios) == 1 or not batchable_experiment(scenarios[0].experiment):
        return [execute_scenario(s) for s in scenarios]
    if runner.FAULT_HOOK is not None:
        # The grouped path bypasses execute_scenario; give the chaos
        # harness the same per-scenario injection point.
        for scenario in scenarios:
            runner.FAULT_HOOK(scenario)
    prepared = [_prepare_lane(scenario) for scenario in scenarios]
    reports = (executor if executor is not None else SeedBatchExecutor()).run(prepared)
    return [
        RunRecord(
            scenario=scenario,
            metrics=_report_metrics(report, traced=bool(scenario.params.get("trace"))),
        )
        for scenario, report in zip(scenarios, reports)
    ]
