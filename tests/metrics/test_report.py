"""Tests for the typed SimReport (accessors, pickling, export)."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.metrics.report import SimReport


@pytest.fixture
def report() -> SimReport:
    return SimReport(
        experiment="hidden-node",
        mac="qma",
        topology="hidden-node",
        params={"delta": 10.0, "seed": 3},
        duration=12.5,
        scalars={"pdr": 0.9, "average_delay": 0.05},
        series={"delay": [(1.0, 0.04), (2.0, 0.06)]},
        tables={"q_history": {0: [(1.0, 2.0)], 2: [(1.5, 3.0)]}},
        details={"aux": object()},
    )


class TestAccessors:
    def test_scalar_lookup_and_error(self, report):
        assert report.scalar("pdr") == 0.9
        with pytest.raises(KeyError, match="average_delay"):
            report.scalar("nope")

    def test_table_lookup_and_error(self, report):
        assert 0 in report.table("q_history")
        with pytest.raises(KeyError, match="q_history"):
            report.table("nope")

    def test_scalars_and_params_readable_as_attributes(self, report):
        assert report.pdr == 0.9
        assert report.average_delay == 0.05
        assert report.delta == 10.0
        assert report.duration == 12.5  # dataclass field, not __getattr__

    def test_unknown_attribute_raises_attribute_error(self, report):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            report.nope
        # Dunder lookups must fail fast, not loop through the fallback.
        with pytest.raises(AttributeError):
            report._private


class TestSerialisation:
    def test_pickle_round_trip(self, report):
        report.details = {}  # plain object() is picklable, but keep it simple
        clone = pickle.loads(pickle.dumps(report))
        assert clone == report
        assert clone.pdr == 0.9

    def test_deepcopy(self, report):
        report.details = {}
        clone = copy.deepcopy(report)
        assert clone == report
        clone.scalars["pdr"] = 0.1
        assert report.scalars["pdr"] == 0.9

    def test_to_dict_is_json_ready(self, report):
        import json

        payload = report.to_dict()
        assert "aux" not in str(payload)  # details are omitted
        text = json.dumps(payload)
        data = json.loads(text)
        assert data["scalars"]["pdr"] == 0.9
        assert data["tables"]["q_history"]["0"] == [[1.0, 2.0]]
