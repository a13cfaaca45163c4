"""Structured campaign results: records, export and aggregation.

A :class:`RunRecord` pairs a scenario with the scalar metrics its run
produced (and optionally the raw experiment result object for callers that
need time series or per-node detail).  A :class:`CampaignResult` is the
ordered record list of one campaign with JSON/CSV export and
confidence-interval aggregation on top.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.stats import confidence_interval_95
from repro.campaign.spec import Scenario

#: Keys of :meth:`RunRecord.row` that name the scenario rather than a metric.
_SCENARIO_COLUMNS = ("experiment", "mac", "propagation", "seed")


class AmbiguousKeyError(KeyError):
    """A looked-up key names both a metric and a scenario field/parameter.

    The built-in experiment runners never collide (the test suite pins
    that down), but a custom collector is free to emit a scalar named like
    a sweep axis — :meth:`RunRecord.value` then refuses to guess instead of
    silently preferring one side.
    """


@dataclass
class RunRecord:
    """The outcome of one scenario: scalar metrics keyed by name.

    ``raw`` optionally holds the full experiment result object (histories,
    per-node dictionaries, ...).  It is excluded from JSON/CSV export, which
    covers the scalar metrics only.
    """

    scenario: Scenario
    metrics: Dict[str, float] = field(default_factory=dict)
    raw: Any = None

    def metric(self, key: str) -> float:
        """Look up a metric by name (unambiguous accessor)."""
        return self.metrics[key]

    def param(self, key: str) -> Any:
        """Look up a scenario parameter by name (unambiguous accessor)."""
        return self.scenario.params[key]

    def value(self, key: str) -> Any:
        """Look up ``key`` among the metrics, scenario fields and parameters.

        A key naming both a metric and a scenario field or parameter raises
        :class:`AmbiguousKeyError` — use :meth:`metric` / :meth:`param` (or
        ``scenario.<field>``) to pick a side explicitly.  Earlier releases
        silently preferred the metric, which made a collector scalar named
        like a sweep axis shadow the axis in ``aggregate(by=...)``.
        """
        in_metrics = key in self.metrics
        shadowed = key in _SCENARIO_COLUMNS or key in self.scenario.params
        if in_metrics and shadowed:
            raise AmbiguousKeyError(
                f"{key!r} names both a metric and a scenario field/parameter; "
                f"use record.metric({key!r}) or record.param({key!r}) instead"
            )
        if in_metrics:
            return self.metrics[key]
        if key == "experiment":
            return self.scenario.experiment
        if key == "mac":
            return self.scenario.mac
        if key == "propagation":
            return self.scenario.propagation
        if key == "seed":
            return self.scenario.seed
        if key in self.scenario.params:
            return self.scenario.params[key]
        raise KeyError(f"record has no metric or scenario field {key!r}")

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

    def metric_names(self) -> List[str]:
        """Union of metric names over all records, sorted."""
        names = set()
        for record in self.records:
            names.update(record.metrics)
        return sorted(names)

    def param_names(self) -> List[str]:
        """Union of scenario parameter names over all records, sorted."""
        names = set()
        for record in self.records:
            names.update(record.scenario.params)
        return sorted(names)

    # ---------------------------------------------------------------- export
    def to_json(self, path: Optional[Union[str, "io.TextIOBase"]] = None) -> str:
        """Serialise the records (scenario + metrics) to JSON.

        Returns the JSON text; when ``path`` is given it is also written
        there (a file path or an open text file).
        """
        payload = {"records": [record.to_dict() for record in self.records]}
        text = json.dumps(payload, indent=2, sort_keys=True)
        _write_text(text + "\n", path)
        return text

    def to_csv(self, path: Optional[Union[str, "io.TextIOBase"]] = None) -> str:
        """Serialise the records to CSV (one flat row per run).

        Columns are the scenario identity, then all parameter names, then
        all metric names; cells missing for a record stay empty.
        """
        # A name used both as parameter and metric yields one column holding
        # the metric (metrics shadow parameters in ``row()``); the built-in
        # experiment runners avoid such collisions.
        columns: List[str] = []
        for name in list(_SCENARIO_COLUMNS) + self.param_names() + self.metric_names():
            if name not in columns:
                columns.append(name)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
        writer.writeheader()
        for record in self.records:
            writer.writerow(record.row())
        text = buffer.getvalue()
        _write_text(text, path)
        return text

    # ----------------------------------------------------------- aggregation
    def aggregate(
        self,
        metric: str,
        by: Sequence[str] = ("mac",),
    ) -> Dict[Tuple[Any, ...], Dict[str, float]]:
        """Group records and compute ``{"mean", "ci95", "n"}`` per group.

        ``by`` names scenario fields ("experiment", "mac", "seed") or
        parameter axes; ``metric`` names a scalar metric.  Groups are
        returned in first-appearance order (which, for sweep output, is the
        deterministic expansion order).
        """
        groups: Dict[Tuple[Any, ...], List[float]] = {}
        for record in self.records:
            key = tuple(record.value(field_name) for field_name in by)
            groups.setdefault(key, []).append(float(record.value(metric)))
        result: Dict[Tuple[Any, ...], Dict[str, float]] = {}
        for key, samples in groups.items():
            mean, half_width = confidence_interval_95(samples)
            result[key] = {"mean": mean, "ci95": half_width, "n": float(len(samples))}
        return result


def load_json(source: Union[str, "io.TextIOBase"]) -> CampaignResult:
    """Load a :class:`CampaignResult` previously written by :meth:`to_json`."""
    if hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    return CampaignResult(
        records=[RunRecord.from_dict(entry) for entry in data.get("records", [])]
    )


def _write_text(text: str, path: Optional[Union[str, "io.TextIOBase"]]) -> None:
    if path is None:
        return
    if hasattr(path, "write"):
        path.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
