"""Tests for the streaming record sinks and CampaignRunner.stream."""

from __future__ import annotations

import json

import pytest

from repro.analysis.stats import StreamingStats, confidence_interval_95
from repro.campaign.frame import (
    CsvRecordSink,
    JsonDocumentSink,
    JsonlRecordSink,
    RecordSink,
    TableAggregator,
    iter_jsonl,
)
from repro.campaign.records import RunRecord, load_json
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import Scenario, Sweep


def _record(mac: str, seed: int, delta: float, pdr: float) -> RunRecord:
    return RunRecord(
        scenario=Scenario(
            experiment="hidden-node", mac=mac, seed=seed, params={"delta": delta}
        ),
        metrics={"pdr": pdr},
    )


@pytest.fixture
def records():
    return [
        _record("qma", 0, 10.0, 0.9),
        _record("qma", 1, 10.0, 1.0),
        _record("unslotted-csma", 0, 10.0, 0.6),
        _record("unslotted-csma", 1, 10.0, 0.8),
    ]


def _tiny_sweep(metrics=None) -> Sweep:
    return Sweep(
        experiment="hidden-node",
        macs=("qma",),
        grid={"delta": [10.0]},
        fixed={"packets_per_node": 8, "warmup": 5.0},
        seeds=(0, 1),
        metrics=metrics,
    )


class TestStreamingStats:
    def test_mean_matches_batch_mean_exactly(self):
        samples = [0.1, 0.2, 0.30000001, 0.7, 1.9]
        stats = StreamingStats()
        for sample in samples:
            stats.push(sample)
        mean, ci = confidence_interval_95(samples)
        assert stats.mean == mean  # running sum == sum() in the same order
        assert stats.ci95()[1] == pytest.approx(ci, rel=1e-12)
        assert stats.n == 5

    def test_degenerate_sizes(self):
        stats = StreamingStats()
        assert stats.ci95() == (0.0, 0.0)
        stats.push(3.0)
        assert stats.ci95() == (3.0, 0.0)


class TestSinks:
    def test_jsonl_sink_round_trips_records(self, records, tmp_path):
        path = tmp_path / "records.jsonl"
        sink = JsonlRecordSink(str(path))
        for record in records:
            sink.write(record)
        sink.close()
        assert sink.written == 4
        loaded = list(iter_jsonl(str(path)))
        assert loaded == records

    def test_csv_sink_streams_flat_rows(self, records, tmp_path):
        import csv as csv_module

        path = tmp_path / "records.csv"
        sink = CsvRecordSink(str(path))
        for record in records:
            sink.write(record)
        sink.close()
        with open(path, newline="") as handle:
            rows = list(csv_module.DictReader(handle))
        assert len(rows) == 4
        assert rows[0]["mac"] == "qma"
        assert float(rows[3]["pdr"]) == 0.8

    def test_csv_sink_declared_columns_survive_missing_first_row(self, records, tmp_path):
        path = tmp_path / "records.csv"
        sink = CsvRecordSink(str(path), columns=("extra_metric",))
        sink.write(records[0])
        later = _record("qma", 7, 10.0, 0.5)
        later.metrics["extra_metric"] = 42.0
        sink.write(later)
        sink.close()
        text = path.read_text()
        assert "extra_metric" in text.splitlines()[0]
        assert "42.0" in text

    def test_json_document_sink_keeps_legacy_format(self, records, tmp_path):
        path = tmp_path / "records.json"
        sink = JsonDocumentSink(str(path))
        for record in records:
            sink.write(record)
        sink.close()
        sink.close()  # idempotent
        loaded = load_json(str(path))
        assert loaded.records == records

    def test_table_aggregator_matches_batch_aggregation(self, records):
        aggregator = TableAggregator(by=("mac", "delta"))
        for record in records:
            aggregator.write(record)
        assert aggregator.metric_names() == ["pdr"]
        groups = aggregator.groups("pdr")
        assert list(groups) == [("qma", 10.0), ("unslotted-csma", 10.0)]  # first appearance
        for key in groups:
            samples = [
                r.metrics["pdr"]
                for r in records
                if (r.scenario.mac, r.scenario.params["delta"]) == key
            ]
            mean, ci = confidence_interval_95(samples)
            assert groups[key]["mean"] == mean  # running sum == sum() in the same order
            # Welford's variance may differ from the two-pass one in the last ulps.
            assert groups[key]["ci95"] == pytest.approx(ci, rel=1e-12, abs=1e-15)
            assert groups[key]["n"] == len(samples)

    def test_table_aggregator_skips_records_missing_the_metric(self, records):
        aggregator = TableAggregator(by=("mac",))
        for record in records:
            aggregator.write(record)
        aggregator.write(
            RunRecord(scenario=Scenario(experiment="hidden-node", mac="tdma"), metrics={"x": 1.0})
        )
        assert ("tdma",) not in aggregator.groups("pdr")
        assert list(aggregator.groups("x")) == [("tdma",)]
        assert aggregator.groups("absent") == {}

    def test_table_aggregator_groups_by_param_not_colliding_metric(self):
        """A metric named like a sweep axis never shadows the axis."""
        aggregator = TableAggregator(by=("delta",))
        for delta, value in ((10.0, 0.5), (25.0, 0.5)):
            aggregator.write(
                RunRecord(
                    scenario=Scenario(experiment="hidden-node", params={"delta": delta}),
                    metrics={"delta": value},
                )
            )
        assert list(aggregator.groups("delta")) == [(10.0,), (25.0,)]


class TestStream:
    def test_stream_without_collect_keeps_no_rows(self, tmp_path):
        """stream has no collecting mode: it returns nothing and the
        records only reach the sinks (constant memory)."""
        path = tmp_path / "stream.jsonl"
        sink = JsonlRecordSink(str(path))
        assert CampaignRunner(jobs=1).stream(_tiny_sweep(), sinks=[sink]) is None
        assert sink.written == 2
        loaded = list(iter_jsonl(str(path)))
        assert len(loaded) == 2
        assert 0.0 <= loaded[0].metrics["pdr"] <= 1.0

    def test_stream_closes_sinks_on_error(self, tmp_path):
        class Boom(RuntimeError):
            pass

        class FailingSink(JsonlRecordSink):
            def write(self, record):
                raise Boom()

        sink = FailingSink(str(tmp_path / "x.jsonl"))
        with pytest.raises(Boom):
            CampaignRunner(jobs=1).stream(_tiny_sweep(), sinks=[sink])
        assert sink._handle is None  # closed despite the failure

    def test_stream_matches_run_and_is_worker_count_independent(self):
        class Rows(RecordSink):
            def __init__(self):
                super().__init__()
                self.rows = []

            def write(self, record):
                super().write(record)
                self.rows.append(record.row())

        sweep = _tiny_sweep(metrics=("pdr", "delay", "attempts"))
        serial, parallel = Rows(), Rows()
        CampaignRunner(jobs=1).stream(sweep, sinks=[serial])
        CampaignRunner(jobs=4).stream(sweep, sinks=[parallel])
        batch = CampaignRunner(jobs=1).run(sweep)
        assert serial.rows == parallel.rows
        assert serial.rows == [record.row() for record in batch]


class TestTolerantJsonlReader:
    """Crash-truncated streams stay loadable (PR 8 journal hardening)."""

    def _write_stream(self, tmp_path, records, tail=b""):
        path = tmp_path / "stream.jsonl"
        sink = JsonlRecordSink(str(path))
        for record in records:
            sink.write(record)
        sink.close()
        if tail:
            with open(path, "ab") as handle:
                handle.write(tail)
        return str(path)

    def test_truncated_final_line_skipped_with_warning(self, tmp_path, records):
        path = self._write_stream(tmp_path, records, tail=b'{"scenario": {"exp')
        with pytest.warns(RuntimeWarning, match="truncated"):
            loaded = list(iter_jsonl(path))
        assert len(loaded) == len(records)
        assert [r.metrics for r in loaded] == [r.metrics for r in records]

    def test_intact_stream_no_warning(self, tmp_path, records):
        import warnings as warnings_module

        path = self._write_stream(tmp_path, records)
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            loaded = list(iter_jsonl(path))
        assert len(loaded) == len(records)

    def test_iter_jsonl_objects_midfile_error_propagates(self, tmp_path):
        """Only the *final* line is forgiven; mid-file garbage still raises."""
        from repro.campaign.frame import iter_jsonl_objects

        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\ngarbage\n{"ok": 2}\n')
        with pytest.raises(json.JSONDecodeError):
            with open(path) as handle:
                list(iter_jsonl_objects(handle))

    def test_sink_close_fsyncs(self, tmp_path, records, monkeypatch):
        """JsonlRecordSink.close() pushes bytes to disk via os.fsync."""
        import os as os_module

        synced = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            "repro.campaign.frame.os.fsync",
            lambda fd: (synced.append(fd), real_fsync(fd))[1],
        )
        sink = JsonlRecordSink(str(tmp_path / "out.jsonl"))
        sink.write(records[0])
        sink.close()
        assert synced, "close() must fsync the sink's file descriptor"
