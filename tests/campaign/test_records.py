"""Tests for RunRecord / CampaignResult through the export and aggregation sinks."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.analysis.stats import confidence_interval_95
from repro.campaign.frame import CsvRecordSink, JsonDocumentSink, TableAggregator
from repro.campaign.records import CampaignResult, RunRecord, load_json
from repro.campaign.spec import Scenario


def _record(mac: str, seed: int, delta: float, pdr: float) -> RunRecord:
    return RunRecord(
        scenario=Scenario(
            experiment="hidden-node", mac=mac, seed=seed, params={"delta": delta}
        ),
        metrics={"pdr": pdr},
    )


def _feed(sink, records):
    for record in records:
        sink.write(record)
    sink.close()
    return sink


def _csv_text(records) -> str:
    buffer = io.StringIO()
    _feed(CsvRecordSink(buffer), records)
    return buffer.getvalue()


@pytest.fixture
def campaign() -> CampaignResult:
    return CampaignResult(
        records=[
            _record("qma", 0, 10.0, 0.9),
            _record("qma", 1, 10.0, 1.0),
            _record("unslotted-csma", 0, 10.0, 0.6),
            _record("unslotted-csma", 1, 10.0, 0.8),
        ]
    )


class TestRunRecord:
    def test_row_flattens_scenario_and_metrics(self):
        row = _record("qma", 0, 10.0, 0.9).row()
        assert row == {
            "experiment": "hidden-node",
            "mac": "qma",
            "propagation": "",
            "seed": 0,
            "delta": 10.0,
            "pdr": 0.9,
        }


class TestExport:
    def test_json_round_trip(self, campaign, tmp_path):
        path = tmp_path / "records.json"
        _feed(JsonDocumentSink(str(path)), campaign)
        assert json.loads(path.read_text())["records"]
        loaded = load_json(str(path))
        assert loaded.records == campaign.records
        assert len(loaded) == 4

    def test_csv_has_one_row_per_run(self, campaign, tmp_path):
        path = tmp_path / "records.csv"
        _feed(CsvRecordSink(str(path)), campaign)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert rows[0]["experiment"] == "hidden-node"
        assert float(rows[1]["pdr"]) == 1.0
        assert rows[0]["delta"] == "10.0"

    def test_csv_columns_cover_params_and_metrics(self, campaign):
        header = _csv_text(campaign).splitlines()[0].split(",")
        assert header == ["experiment", "mac", "propagation", "seed", "delta", "pdr"]

    def test_csv_header_never_duplicates_colliding_names(self):
        record = RunRecord(
            scenario=Scenario(experiment="scalability", params={"duration": 40.0}),
            metrics={"duration": 40.0, "pdr": 1.0},
        )
        header = _csv_text([record]).splitlines()[0].split(",")
        assert header.count("duration") == 1

    def test_builtin_adapters_avoid_param_metric_collisions(self):
        from repro.campaign.runner import execute_scenario

        record = execute_scenario(
            Scenario(
                experiment="scalability",
                mac="unslotted-csma",
                seed=1,
                params={"rings": 1, "duration": 30.0, "warmup": 15.0},
            )
        )
        assert not set(record.metrics) & set(record.scenario.params)
        assert record.scenario.params["duration"] == 30.0
        assert record.metrics["sim_time"] == 30.0


class TestAggregate:
    def test_groups_by_mac_and_matches_stats_helper(self, campaign):
        stats = _feed(TableAggregator(by=("mac",)), campaign).groups("pdr")
        mean, ci = confidence_interval_95([0.9, 1.0])
        assert stats[("qma",)]["mean"] == mean
        assert stats[("qma",)]["ci95"] == pytest.approx(ci, rel=1e-12)
        assert stats[("qma",)]["n"] == 2
        assert stats[("unslotted-csma",)]["mean"] == pytest.approx(0.7)

    def test_group_order_is_first_appearance(self, campaign):
        keys = list(_feed(TableAggregator(by=("mac", "delta")), campaign).groups("pdr"))
        assert keys == [("qma", 10.0), ("unslotted-csma", 10.0)]
