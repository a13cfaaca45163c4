"""Campaign-runner family table, metric declarations and ``resolve_jobs``.

Whether every execution path reproduces the same records is checked
against literal digests in ``test_pinned_digests.py``.
"""

from __future__ import annotations

import pytest

from repro.campaign.records import RunRecord
from repro.campaign.runner import execute_scenario, resolve_jobs
from repro.campaign.spec import EXPERIMENT_KINDS, Scenario


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
        from repro.campaign.runner import experiment_metric_names, is_known_metric

        tiny = {
            "hidden-node": {"delta": 10.0, "packets_per_node": 8, "warmup": 5.0},
            "sinr-hidden-node": {"delta": 10.0, "packets_per_node": 8, "warmup": 2.0},
            "testbed-tree": {"delta": 2.0, "packets_per_node": 4, "warmup": 6.0},
            "testbed-star": {"delta": 2.0, "packets_per_node": 4, "warmup": 6.0},
            "scalability": {"rings": 1, "duration": 30.0, "warmup": 20.0},
        }
        for experiment in EXPERIMENT_KINDS:
            record = execute_scenario(
                Scenario(experiment=experiment, mac="unslotted-csma", params=tiny[experiment])
            )
            declared = {
                name
                for name in experiment_metric_names(experiment)
                if "*" not in name and name != "trace_dropped"
            }
            static = {m for m in record.metrics if not m.startswith("pdr_node_")}
            assert static == declared, f"metric drift for {experiment}"
            assert all(is_known_metric(experiment, m) for m in record.metrics)
        assert is_known_metric("testbed-star", "pdr_node_17")
        assert not is_known_metric("hidden-node", "pdr_node_17")
        assert not is_known_metric("hidden-node", "nope")

    @pytest.mark.parametrize("mac", ["qma", "unslotted-csma"])
    def test_sinr_hidden_node_propagation_none_is_unit_disk(self, mac):
        """SINR needs a propagation model: a sweep that leaves the
        propagation axis at None runs the runner's ``unit-disk`` default."""
        params = {"delta": 10.0, "packets_per_node": 8, "warmup": 2.0}
        default, unit_disk = (
            execute_scenario(
                Scenario("sinr-hidden-node", mac=mac, seed=0, params=params, propagation=p)
            ).metrics
            for p in (None, "unit-disk")
        )
        assert default == unit_disk

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


class TestResolveJobs:
    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1
