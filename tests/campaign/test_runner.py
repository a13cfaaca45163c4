"""Campaign-runner family table, metric declarations, the record path's
collector selection and ``resolve_jobs``.

Whether every execution path reproduces the same records is checked
against literal digests in ``test_pinned_digests.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign import runner
from repro.campaign.records import RunRecord
from repro.campaign.runner import (
    _report_metrics,
    execute_scenario,
    is_known_metric,
    record_collectors,
    resolve_jobs,
    scenario_report,
)
from repro.campaign.spec import EXPERIMENT_KINDS, Scenario


class TestAdapters:
    def test_runner_family_table_matches_experiment_kinds(self):
        """Every family the spec accepts has a runner, and no runner is
        reachable without a spec entry (construction keys included)."""
        assert tuple(runner._FAMILIES) == EXPERIMENT_KINDS

    def test_testbed_and_scalability_scenarios_execute(self):
        star = Scenario(
            experiment="testbed-star",
            mac="unslotted-csma",
            seed=1,
            params={"delta": 2.0, "packets_per_node": 6, "warmup": 10.0},
        )
        testbed = execute_scenario(star)
        assert isinstance(testbed, RunRecord)
        assert 0.0 <= testbed.metrics["overall_pdr"] <= 1.0
        report = scenario_report(star)
        assert report.topology == "iotlab-star"
        assert report.scalars.items() <= testbed.metrics.items()

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
        assert set(record.to_dict()) == {"scenario", "metrics"}
        assert set(record.metrics) >= {"pdr", "average_queue_level", "average_delay"}


#: One reduced QMA run per experiment family.
REDUCED = {
    "hidden-node": {"delta": 10.0, "packets_per_node": 30, "warmup": 5.0},
    "sinr-hidden-node": {"delta": 10.0, "packets_per_node": 30, "warmup": 2.0},
    "testbed-tree": {"packets_per_node": 3, "warmup": 0.5, "max_duration": 3.0},
    "testbed-star": {"packets_per_node": 3, "warmup": 0.5, "max_duration": 3.0},
    "scalability": {"rings": 1, "duration": 4.0, "warmup": 2.0},
}


#: The hidden-node run whose counters ``tests/core/test_tick_counters.py``
#: pins (its ``RUNS["hidden-node"]``).
PINNED_HIDDEN_NODE = Scenario("hidden-node", mac="qma", seed=1,
                              params={"delta": 10.0, "packets_per_node": 30, "warmup": 5.0})


def _with_tables(experiment):
    """The family's default collectors plus ``convergence`` and ``slots``."""
    defaults = runner._FAMILIES[experiment][1].DEFAULT_COLLECTORS
    return tuple(dict.fromkeys(defaults + ("convergence", "slots")))


class TestRecordCollectors:
    """A record keeps scalars only, so its run attaches only the collectors
    that provide one; that is safe only while every scalar a collector
    writes is one it declares."""

    @pytest.mark.parametrize("named", [False, True], ids=["defaults", "with-tables"])
    @pytest.mark.parametrize("experiment", sorted(runner._FAMILIES))
    def test_a_record_equals_the_scalars_of_the_full_report(self, experiment, named):
        metrics = _with_tables(experiment) if named else None
        scenario = Scenario(experiment, mac="qma", seed=1, params=REDUCED[experiment],
                            metrics=metrics)
        report = scenario_report(scenario)
        undeclared = [m for m in report.scalars if not is_known_metric(experiment, m, metrics)]
        assert undeclared == []
        assert repr(execute_scenario(scenario).metrics) == repr(
            _report_metrics(report, traced=False)
        )
        if named:  # the full report still carries the histories
            assert any(report.table("q_history").values())

    def test_the_pinned_hidden_node_record_equals_the_full_report(self):
        """The pinned hidden-node run named with only the collectors that
        provide a scalar records the scalars of its full report, whose
        default convergence collector records the histories."""
        report = scenario_report(PINNED_HIDDEN_NODE)
        assert any(report.table("q_history").values())
        named = ("pdr", "queue", "delay", "attempts")
        record = execute_scenario(dataclasses.replace(PINNED_HIDDEN_NODE, metrics=named))
        assert repr(record.metrics) == repr(_report_metrics(report, traced=False))

    def test_collectors_without_a_scalar_are_left_out(self):
        assert record_collectors("hidden-node", None) == ("pdr", "queue", "delay", "attempts")
        assert record_collectors("scalability", ("convergence", "dsme", "slots")) == ("dsme",)
        assert record_collectors("testbed-star", ("slots",)) == ()

    def test_a_cached_selection_builds_no_collector(self, monkeypatch):
        scenario = Scenario("hidden-node", mac="qma", seed=1, params=REDUCED["hidden-node"])
        record_collectors(scenario.experiment, scenario.metrics)

        def build_collectors(*args, **kwargs):
            raise AssertionError("the record path built collectors for its selection")

        monkeypatch.setattr(runner, "build_collectors", build_collectors)
        assert execute_scenario(scenario).metrics["pdr"] > 0.0


class TestResolveJobs:
    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1
