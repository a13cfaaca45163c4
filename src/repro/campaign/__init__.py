"""Campaign orchestration: declarative sweeps over scenarios, run in parallel.

The paper's evaluation is built from sweeps over MAC kind x topology x
traffic intensity x seed.  This package turns such sweeps into plain data
(:class:`~repro.campaign.spec.Scenario` / :class:`~repro.campaign.spec.Sweep`),
executes the cross-product over a ``multiprocessing`` worker pool
(:class:`~repro.campaign.runner.CampaignRunner`), and collects structured
:class:`~repro.campaign.records.RunRecord` results with JSON/CSV export and
confidence-interval aggregation.  Sweeps carry a ``metrics=`` axis naming
the collectors of :mod:`repro.metrics` that instrument every run, and
:meth:`~repro.campaign.runner.CampaignRunner.stream` pushes finished
records through :class:`~repro.campaign.frame.RecordSink` objects
(JSONL/CSV streaming, grouped aggregation) in constant memory — or
accumulates them into a columnar :class:`~repro.campaign.frame.ResultFrame`.

Because every simulation draws all randomness from named streams seeded by
a single master seed (see :mod:`repro.sim.rng`), each scenario is a pure
function of its spec — results are bit-identical regardless of worker
count or scheduling, which the campaign test suite asserts.
"""

from repro.campaign.frame import (
    CsvRecordSink,
    JsonDocumentSink,
    JsonlRecordSink,
    RecordSink,
    ResultFrame,
    TableAggregator,
    iter_jsonl,
    load_jsonl,
)
from repro.campaign.records import AmbiguousKeyError, CampaignResult, RunRecord, load_json
from repro.campaign.runner import (
    DEFAULT_TRACE_LIMIT,
    CampaignRunner,
    ScenarioTemplate,
    WorkerPool,
    execute_scenario,
    experiment_metric_names,
    is_known_metric,
    resolve_chunksize,
)
from repro.campaign.spec import EXPERIMENT_KINDS, Scenario, Sweep

__all__ = [
    "AmbiguousKeyError",
    "CampaignResult",
    "CampaignRunner",
    "CsvRecordSink",
    "DEFAULT_TRACE_LIMIT",
    "EXPERIMENT_KINDS",
    "JsonDocumentSink",
    "JsonlRecordSink",
    "RecordSink",
    "ResultFrame",
    "RunRecord",
    "Scenario",
    "ScenarioTemplate",
    "Sweep",
    "TableAggregator",
    "WorkerPool",
    "execute_scenario",
    "experiment_metric_names",
    "is_known_metric",
    "iter_jsonl",
    "load_json",
    "load_jsonl",
    "resolve_chunksize",
]
