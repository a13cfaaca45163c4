"""Campaign orchestration: declarative sweeps over scenarios, run in parallel.

The paper's evaluation is built from sweeps over MAC kind x topology x
traffic intensity x seed.  This package turns such sweeps into plain data
(:class:`~repro.campaign.spec.Scenario` / :class:`~repro.campaign.spec.Sweep`),
executes the cross-product over a process-pool executor
(:class:`~repro.campaign.runner.CampaignRunner`), and collects structured
:class:`~repro.campaign.records.RunRecord` results.  Sweeps carry a
``metrics=`` axis naming the collectors of :mod:`repro.metrics` that
instrument every run.  Records reach files and tables through one path,
the :class:`~repro.campaign.frame.RecordSink` objects (JSONL, CSV and JSON
export, grouped mean/CI aggregation by
:class:`~repro.campaign.frame.TableAggregator`), which
:meth:`~repro.campaign.runner.CampaignRunner.stream` feeds in constant
memory.

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
    TableAggregator,
    iter_jsonl,
)
from repro.campaign.records import CampaignResult, RunRecord, load_json
from repro.campaign.runner import (
    DEFAULT_TRACE_LIMIT,
    CampaignRunner,
    ScenarioTemplate,
    execute_scenario,
    experiment_metric_names,
    is_known_metric,
    resolve_chunksize,
)
from repro.campaign.spec import EXPERIMENT_KINDS, Scenario, Sweep

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "CsvRecordSink",
    "DEFAULT_TRACE_LIMIT",
    "EXPERIMENT_KINDS",
    "JsonDocumentSink",
    "JsonlRecordSink",
    "RecordSink",
    "RunRecord",
    "Scenario",
    "ScenarioTemplate",
    "Sweep",
    "TableAggregator",
    "execute_scenario",
    "experiment_metric_names",
    "is_known_metric",
    "iter_jsonl",
    "load_json",
    "resolve_chunksize",
]
