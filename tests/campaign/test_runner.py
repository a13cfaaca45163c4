"""Campaign-runner adapters, metric declarations and ``map_seeds``.

Whether every execution path reproduces the same records is checked
against literal digests in ``test_pinned_digests.py``.
"""

from __future__ import annotations

import functools

import pytest

from repro.campaign.records import RunRecord
from repro.campaign.runner import execute_scenario, map_seeds, resolve_jobs
from repro.campaign.spec import Scenario
from repro.experiments.hidden_node import run_hidden_node


class TestAdapters:
    def test_testbed_and_scalability_scenarios_execute(self):
        testbed = execute_scenario(
            Scenario(
                experiment="testbed-star",
                mac="unslotted-csma",
                seed=1,
                params={"delta": 2.0, "packets_per_node": 6, "warmup": 10.0},
            ),
            keep_raw=True,
        )
        assert isinstance(testbed, RunRecord)
        assert 0.0 <= testbed.metrics["overall_pdr"] <= 1.0
        assert testbed.raw.topology == "iotlab-star"

        scalability = execute_scenario(
            Scenario(
                experiment="scalability",
                mac="unslotted-csma",
                seed=1,
                params={"rings": 1, "duration": 40.0, "warmup": 20.0},
            )
        )
        assert scalability.metrics["num_nodes"] == 7.0
        assert 0.0 <= scalability.metrics["secondary_pdr"] <= 1.0

    def test_is_known_metric_is_false_for_unknown_experiment(self):
        from repro.campaign.runner import experiment_metric_names, is_known_metric

        assert not is_known_metric("moon-bounce", "pdr")
        with pytest.raises(ValueError, match="unknown experiment"):
            experiment_metric_names("moon-bounce")

    def test_traced_records_always_carry_trace_dropped(self):
        """Every record of a traced sweep has the same metric set, so the
        streaming CSV header (fixed at the first record) never loses the
        trace_dropped column."""
        record = execute_scenario(
            Scenario(
                experiment="hidden-node",
                mac="qma",
                seed=1,
                params={
                    "delta": 10.0,
                    "packets_per_node": 5,
                    "warmup": 5.0,
                    "trace": True,
                },
            )
        )
        assert record.metrics["trace_dropped"] == 0.0  # present even without drops
        untraced = execute_scenario(
            Scenario(
                experiment="hidden-node",
                mac="qma",
                seed=1,
                params={"delta": 10.0, "packets_per_node": 5, "warmup": 5.0},
            )
        )
        assert "trace_dropped" not in untraced.metrics

    def test_declared_metrics_match_what_adapters_emit(self):
        from repro.campaign.runner import EXPERIMENT_METRICS, is_known_metric

        tiny = {
            "hidden-node": {"delta": 10.0, "packets_per_node": 8, "warmup": 5.0},
            "sinr-hidden-node": {"delta": 10.0, "packets_per_node": 8, "warmup": 2.0},
            "testbed-tree": {"delta": 2.0, "packets_per_node": 4, "warmup": 6.0},
            "testbed-star": {"delta": 2.0, "packets_per_node": 4, "warmup": 6.0},
            "scalability": {"rings": 1, "duration": 30.0, "warmup": 20.0},
        }
        for experiment, declared in EXPERIMENT_METRICS.items():
            record = execute_scenario(
                Scenario(experiment=experiment, mac="unslotted-csma", params=tiny[experiment])
            )
            static = {m for m in record.metrics if not m.startswith("pdr_node_")}
            assert static == set(declared), f"metric drift for {experiment}"
            assert all(is_known_metric(experiment, m) for m in record.metrics)
        assert is_known_metric("testbed-star", "pdr_node_17")
        assert not is_known_metric("hidden-node", "pdr_node_17")
        assert not is_known_metric("hidden-node", "nope")

    def test_records_are_export_ready_without_raw(self):
        record = execute_scenario(
            Scenario(
                experiment="hidden-node",
                mac="qma",
                params={"delta": 10.0, "packets_per_node": 8, "warmup": 5.0},
            )
        )
        assert record.raw is None
        assert set(record.metrics) >= {"pdr", "average_queue_level", "average_delay"}


def _pdr_for_seed(seed: int) -> float:
    return run_hidden_node(
        mac="qma", delta=10.0, packets_per_node=10, warmup=5.0, seed=seed
    ).pdr


class TestMapSeeds:
    def test_parallel_map_matches_serial(self):
        seeds = [0, 1, 2, 3]
        serial = map_seeds(_pdr_for_seed, seeds, jobs=1)
        parallel = map_seeds(_pdr_for_seed, seeds, jobs=4)
        assert serial == parallel
        assert len(serial) == 4

    def test_partial_of_module_function_is_poolable(self):
        run = functools.partial(
            run_hidden_node, mac="qma", delta=10.0, packets_per_node=8, warmup=5.0
        )
        results = map_seeds(lambda seed: run(seed=seed).pdr, [0, 1], jobs=1)
        assert len(results) == 2

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1
