"""Campaign records: one :class:`RunRecord` per run, in expansion order.

A :class:`RunRecord` pairs a scenario with the scalar metrics its run
produced; callers that need time series or per-node detail run the
scenario through :func:`repro.campaign.runner.scenario_report` instead.  A
:class:`CampaignResult` is the ordered record list of one campaign.  Export
and aggregation go through the record sinks of :mod:`repro.campaign.frame`;
:func:`load_json` reads back the document
:class:`~repro.campaign.frame.JsonDocumentSink` writes.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Union

from repro.campaign.spec import Scenario

#: Keys of :meth:`RunRecord.row` that name the scenario rather than a metric.
_SCENARIO_COLUMNS = ("experiment", "mac", "propagation", "seed")


@dataclass
class RunRecord:
    """The outcome of one scenario: scalar metrics keyed by name."""

    scenario: Scenario
    metrics: Dict[str, float] = field(default_factory=dict)

    def row(self) -> Dict[str, Any]:
        """Flat dictionary view: scenario identity, parameters and metrics."""
        row: Dict[str, Any] = {
            "experiment": self.scenario.experiment,
            "mac": self.scenario.mac,
            "propagation": self.scenario.propagation or "",
            "seed": self.scenario.seed,
        }
        row.update(self.scenario.params)
        row.update(self.metrics)
        return row

    def to_dict(self) -> Dict[str, Any]:
        return {"scenario": self.scenario.to_dict(), "metrics": dict(self.metrics)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            metrics=dict(data.get("metrics", {})),
        )


@dataclass
class CampaignResult:
    """All records of one campaign, in sweep-expansion order."""

    records: List[RunRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def load_json(source: Union[str, "io.TextIOBase"]) -> CampaignResult:
    """Load the ``{"records": [...]}`` document of a :class:`JsonDocumentSink`."""
    if hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    return CampaignResult(
        records=[RunRecord.from_dict(entry) for entry in data.get("records", [])]
    )
