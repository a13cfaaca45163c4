"""Determinism regression tests for the campaign runner.

The engine draws all randomness from named streams seeded by each
scenario's master seed, so a campaign's results must be bit-identical
regardless of worker count, scheduling, or how often it is re-run.  These
tests pin that property down — it is what makes parallel sweeps trustworthy.
"""

from __future__ import annotations

import functools

import pytest

from repro.campaign.records import RunRecord
from repro.campaign.runner import CampaignRunner, execute_scenario, map_seeds, resolve_jobs
from repro.campaign.spec import Scenario, Sweep
from repro.experiments.base import MAC_KINDS
from repro.experiments.hidden_node import run_hidden_node


def _fig7_style_sweep() -> Sweep:
    """A tiny fig7-shaped campaign: MAC x delta x seed cross-product."""
    return Sweep(
        experiment="hidden-node",
        macs=("qma", "unslotted-csma"),
        grid={"delta": [10.0, 25.0]},
        fixed={"packets_per_node": 12, "warmup": 5.0},
        seeds=(0, 1),
    )


class TestParallelEqualsSerial:
    def test_fig7_campaign_identical_with_1_and_4_workers(self):
        sweep = _fig7_style_sweep()
        serial = CampaignRunner(jobs=1).run(sweep)
        parallel = CampaignRunner(jobs=4).run(sweep)
        assert len(serial) == len(parallel) == sweep.size == 8
        assert serial.records == parallel.records

    def test_tdma_and_fading_campaign_identical_with_1_and_4_workers(self):
        """The new registry axes keep the parallel == serial guarantee."""
        sweep = Sweep(
            experiment="hidden-node",
            macs=("qma", "tdma"),
            propagations=(None, "fading"),
            grid={"delta": [10.0]},
            fixed={"packets_per_node": 10, "warmup": 5.0},
            # Seed 1's first shadowing draw disconnects the topology; the
            # builder's deterministic redraw must keep the campaign running.
            seeds=(0, 1),
        )
        serial = CampaignRunner(jobs=1).run(sweep)
        parallel = CampaignRunner(jobs=4).run(sweep)
        assert len(serial) == sweep.size == 8
        assert serial.records == parallel.records
        assert {r.scenario.mac for r in serial} == {"qma", "tdma"}
        assert {r.scenario.propagation for r in serial} == {None, "fading"}

    def test_metrics_axis_campaign_identical_with_1_and_4_workers(self):
        """Collector selection keeps the parallel == serial guarantee."""
        sweep = Sweep(
            experiment="hidden-node",
            macs=("qma", "unslotted-csma"),
            grid={"delta": [10.0]},
            fixed={"packets_per_node": 10, "warmup": 5.0},
            seeds=(0, 1),
            metrics=("pdr", "delay", "attempts"),
        )
        serial = CampaignRunner(jobs=1).run(sweep)
        parallel = CampaignRunner(jobs=4).run(sweep)
        assert len(serial) == sweep.size == 4
        assert serial.records == parallel.records
        for record in serial:
            assert record.scenario.metrics == ("pdr", "delay", "attempts")
            assert set(record.metrics) == {
                "pdr", "packets_generated", "packets_delivered",
                "average_delay", "transmission_attempts", "sim_time",
            }

    def test_collector_selection_never_changes_shared_metric_values(self):
        """The metrics= axis only selects observers: shared scalars match the
        default-collector run exactly, for every registered MAC kind."""
        for mac in MAC_KINDS:
            scenario = dict(
                experiment="hidden-node",
                mac=mac,
                seed=4,
                params={"delta": 10.0, "packets_per_node": 10, "warmup": 5.0},
            )
            full = execute_scenario(Scenario(**scenario))
            subset = execute_scenario(Scenario(**scenario, metrics=("pdr", "queue")))
            for name, value in subset.metrics.items():
                assert full.metrics[name] == value, f"{mac}: {name} drifted"

    def test_keep_raw_results_identical_across_worker_counts(self):
        sweep = Sweep(
            experiment="hidden-node",
            macs=("qma",),
            grid={"delta": [10.0]},
            fixed={"packets_per_node": 10, "warmup": 5.0},
            seeds=(0, 1),
        )
        serial = CampaignRunner(jobs=1, keep_raw=True).run(sweep)
        parallel = CampaignRunner(jobs=2, keep_raw=True).run(sweep)
        for left, right in zip(serial, parallel):
            assert left.raw == right.raw


class TestWarmPoolDeterminism:
    """The persistent pool and chunked delta dispatch are orchestration
    details: records must equal serial execution bit for bit."""

    def test_persistent_pool_with_chunking_matches_serial(self):
        sweep = Sweep(
            experiment="hidden-node",
            macs=("qma", "unslotted-csma", "tdma"),
            propagations=(None, "fading"),
            grid={"delta": [10.0]},
            fixed={"packets_per_node": 10, "warmup": 5.0},
            seeds=(0, 1),
        )
        serial = CampaignRunner(jobs=1).run(sweep)
        with CampaignRunner(jobs=4, chunksize=3) as runner:
            chunked = runner.run(sweep)
            # Reusing the warm pool for a second pass must not drift either.
            again = runner.run(sweep)
        assert serial.records == chunked.records == again.records
        assert len(serial) == sweep.size == 12

    def test_streaming_through_warm_pool_matches_serial(self):
        sweep = Sweep(
            experiment="hidden-node",
            macs=("qma",),
            grid={"delta": [10.0, 25.0]},
            fixed={"packets_per_node": 10, "warmup": 5.0},
            seeds=(0, 1),
        )
        serial = [r.metrics for r in CampaignRunner(jobs=1).iter_records(sweep)]
        with CampaignRunner(jobs=2, chunksize=2) as runner:
            streamed = [r.metrics for r in runner.iter_records(sweep)]
        assert serial == streamed


class TestSeedRepeatability:
    @pytest.mark.parametrize("mac", MAC_KINDS)
    def test_same_seed_twice_yields_identical_metrics(self, mac):
        # MAC_KINDS is the registry view, so this parametrisation covers
        # every registered protocol — including the tdma baseline.
        scenario = Scenario(
            experiment="hidden-node",
            mac=mac,
            seed=5,
            params={"delta": 10.0, "packets_per_node": 10, "warmup": 5.0},
        )
        first = execute_scenario(scenario)
        second = execute_scenario(scenario)
        assert first == second
        assert first.metrics == second.metrics

    @pytest.mark.parametrize("propagation", ["unit-disk", "log-distance", "fading"])
    def test_propagation_models_repeat_with_same_seed(self, propagation):
        scenario = Scenario(
            experiment="hidden-node",
            mac="qma",
            seed=11,
            params={"delta": 10.0, "packets_per_node": 10, "warmup": 5.0},
            propagation=propagation,
        )
        assert execute_scenario(scenario) == execute_scenario(scenario)

    def test_different_seeds_differ(self):
        base = {"delta": 25.0, "packets_per_node": 30, "warmup": 5.0}
        records = [
            execute_scenario(
                Scenario(experiment="hidden-node", mac="unslotted-csma", seed=seed, params=base)
            )
            for seed in (0, 1)
        ]
        assert records[0].metrics != records[1].metrics


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
